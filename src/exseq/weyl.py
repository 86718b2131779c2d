"""Weyl-group layer: reflections, absolute length, noncrossing partitions.

Group elements are integer matrices acting on the simple-root basis of K_0
(column convention).  An m-noncrossing partition is an (m+1)-tuple of
elements whose product is the Coxeter element c with additive absolute
lengths.  Each element u of [1, c] carries its wide subcategory
W(u) = {X : t_X <= u} as a bitmask over the positive roots, so absolute-order
questions on [1, c] are mask tests.  phi sends a partition to a
configuration by reading the simples of each W(u) off the Hom table and
placing them in degrees m, ..., 0.
"""
from __future__ import annotations

from functools import reduce
from typing import Iterable, Iterator

from .derived import DObj, _require_categorical
from .roots import (
    DimVector, IntMatrix, RootSystemData, fuss_catalan, mat_identity, mat_mul,
    mat_vec, null_space,
)
from .sequences import MutationError
from .silting import DCollection, collection, is_m_config, order_config

WeylElt = IntMatrix
NCTuple = tuple[WeylElt, ...]


def _coroot(rs: RootSystemData, root: int) -> DimVector:
    """The vector beta with reflection_matrix(rs, root) = id - alpha beta^T:
    beta_j = 2 (alpha, e_j) / (alpha, alpha) under rs.sym_matrix."""
    n = rs.n
    alpha = rs.positive_roots[root]
    aa = sum(alpha[i] * rs.sym_matrix[i][j] * alpha[j]
             for i in range(n) for j in range(n))
    beta = []
    for j in range(n):
        pairing = sum(rs.sym_matrix[i][j] * alpha[i] for i in range(n))
        coeff, rem = divmod(2 * pairing, aa)
        if rem:
            raise MutationError("non-integral reflection matrix entry")
        beta.append(coeff)
    return tuple(beta)


def reflection_matrix(rs: RootSystemData, root: int) -> WeylElt:
    """The reflection along a positive root, as a matrix on column vectors."""
    beta = _coroot(rs, root)
    return tuple(tuple(int(i == j) - a * b for j, b in enumerate(beta))
                 for i, a in enumerate(rs.positive_roots[root]))


def coxeter_element(rs: RootSystemData) -> WeylElt:
    """The product s_1 ... s_n of the simple reflections in vertex order."""
    return reduce(mat_mul, (reflection_matrix(rs, i) for i in range(rs.n)),
                  mat_identity(rs.n))


def abs_length(rs: RootSystemData, w: WeylElt) -> int:
    """The reflection length of w, computed exactly as n - dim ker(w - id)."""
    return rs.n - len(_fixed_space(w))


def _fixed_space(w: WeylElt) -> list[DimVector]:
    """A basis of Fix(w) = ker(w - id)."""
    n = len(w)
    return null_space([[w[i][j] - (i == j) for j in range(n)] for i in range(n)])


class WeylGroup:
    """The noncrossing interval [1, c] of a Weyl group, with its reflections
    and Coxeter element c = s_1 ... s_n.

    [1, c] holds the elements below c in the absolute order; it has the
    Catalan number fuss_catalan(rs, 1) of elements, far fewer than the
    group.  It is built by descent from c: t.u lies below u exactly when
    the root of t is orthogonal to Fix(u) (Bessis; Brady-Watt), and every
    element below c is reached this way.  Each element carries its
    absolute length, its inverse and its wide mask: the bitmask of the
    roots that pass that test, which are the reflections t <= u and the
    indecomposables of the wide subcategory W(u) (Ingalls-Thomas).  So
    every query on [1, c] is a lookup, and u <= v exactly when the mask of
    u is contained in the mask of v.  For the A, D, E families it also keeps,
    for each root x, the mask of the other roots y with a nonzero map
    M_y -> M_x and dim M_y <= dim M_x, read off the Hom table; phi reads the
    simples of each W(u) from these.
    """

    def __init__(self, rs: RootSystemData):
        n = rs.n
        self.rs = rs
        self.identity: WeylElt = mat_identity(n)
        self.reflections: tuple[WeylElt, ...] = tuple(
            reflection_matrix(rs, r) for r in range(len(rs.positive_roots))
        )
        if len(set(self.reflections)) != len(rs.positive_roots):
            raise MutationError("reflections along distinct roots coincide")
        self.coxeter: WeylElt = coxeter_element(rs)
        c_inv = reduce(mat_mul, reversed(self.reflections[:n]), self.identity)

        coroots = [_coroot(rs, r) for r in range(len(rs.positive_roots))]

        interval = {self.coxeter: (n, c_inv)}
        masks = {self.identity: 0}
        level = [self.coxeter]
        for length in range(n - 1, -1, -1):
            below = []
            for u in level:
                u_inv = interval[u][1]
                normals = [mat_vec(rs.sym_matrix, f) for f in _fixed_space(u)]
                mask = 0
                for r, (alpha, beta) in enumerate(zip(rs.positive_roots, coroots)):
                    if any(sum(a * g for a, g in zip(alpha, normal))
                           for normal in normals):
                        continue
                    mask |= 1 << r
                    # t = id - alpha beta^T, so t.u = u - alpha (beta^T u) and
                    # u^-1.t = u^-1 - (u^-1 alpha) beta^T: rank-one updates.
                    bu = [sum(b * x for b, x in zip(beta, col)) for col in zip(*u)]
                    tu = tuple(tuple(x - a * y for x, y in zip(row, bu))
                               for a, row in zip(alpha, u))
                    if tu not in interval:
                        ua = mat_vec(u_inv, alpha)
                        interval[tu] = (length, tuple(
                            tuple(x - c * b for x, b in zip(row, beta))
                            for c, row in zip(ua, u_inv)))
                        below.append(tu)
                masks[u] = mask
            level = below
        expected = fuss_catalan(rs, 1)
        if len(interval) != expected:
            raise MutationError(
                f"descent from c found {len(interval)} elements, expected {expected}"
            )
        self._interval = {w: entry + (masks[w],) for w, entry in interval.items()}
        self.elements: tuple[WeylElt, ...] = tuple(sorted(interval))

        self._subobjects: tuple[int, ...] | None = None
        if rs.hom_table is not None:
            hom = rs.hom_table[0]
            heights = [sum(root) for root in rs.positive_roots]
            self._subobjects = tuple(
                sum(1 << y for y, h in enumerate(heights)
                    if y != x and hom[y][x] and h <= heights[x])
                for x in range(len(heights)))

    def inverse(self, w: WeylElt) -> WeylElt:
        """The inverse of an element of [1, c]."""
        return self._interval[w][1]

    def _wide_mask(self, w: WeylElt) -> int:
        """The roots of W(w) = {X : t_X <= w}, as a bitmask; w in [1, c]."""
        return self._interval[w][2]

    def abs_length(self, w: WeylElt) -> int:
        """The reflection length: a lookup on [1, c], computed off it."""
        entry = self._interval.get(w)
        return abs_length(self.rs, w) if entry is None else entry[0]

    def below_coxeter(self, w: WeylElt) -> bool:
        """Whether w lies below c in the absolute order."""
        return w in self._interval


def generate_weyl(rs: RootSystemData) -> WeylGroup:
    return WeylGroup(rs)


# ---------------------------------------------------------------------------
# Noncrossing partitions and reflection factorizations.
# ---------------------------------------------------------------------------

def enumerate_m_nc(group: WeylGroup, m: int) -> list[NCTuple]:
    """All (m+1)-tuples multiplying to the Coxeter element with additive
    reflection lengths.  m = 0 gives the singleton (c,)."""
    if m < 0:
        raise ValueError("m must be non-negative")
    out: list[NCTuple] = []
    entries = [(u, u_inv, mask) for u, (_, u_inv, mask) in group._interval.items()]

    def split(v: WeylElt, parts: int, prefix: tuple[WeylElt, ...]) -> None:
        if parts == 1:
            out.append(prefix + (v,))
            return
        v_mask = group._wide_mask(v)
        for u, u_inv, mask in entries:
            # u <= v exactly when W(u) lies in W(v), and then u^-1 v is the
            # T-reduced cofactor of u in v.
            if not mask & ~v_mask:
                split(mat_mul(u_inv, v), parts - 1, prefix + (u,))

    split(group.coxeter, m + 1, ())
    out.sort()
    return out


def reflection_factorizations(group: WeylGroup, w: WeylElt,
                              first_only: bool = False) -> list[tuple[int, ...]]:
    """T-reduced words for w, as tuples of positive-root indices.

    Requires w below the Coxeter element in absolute order.
    """
    if not group.below_coxeter(w):
        raise ValueError("element is not below the Coxeter element in absolute order")
    words = _factorization_words(group, w)
    if first_only:
        return [next(words)]
    return list(words)


def _factorization_words(group: WeylGroup, w: WeylElt) -> Iterator[tuple[int, ...]]:
    """The T-reduced words for w in [1, c], in lexicographic order of root
    indices.  A word may start with t exactly when t <= w, which is when
    t's root is in the wide mask of w."""
    mask = group._wide_mask(w)
    if not mask:
        yield ()
        return
    for r, t in enumerate(group.reflections):
        if mask >> r & 1:
            for tail in _factorization_words(group, mat_mul(t, w)):
                yield (r,) + tail


def reflection_of_object(x: DObj) -> WeylElt:
    """The reflection along the class of x; degree-independent."""
    return reflection_matrix(x.rs, x.root)


def sequence_reflection_product(seq: Iterable[DObj]) -> WeylElt:
    items = tuple(seq)
    if not items:
        raise ValueError("empty sequence has no reflection product")
    return reduce(mat_mul, map(reflection_of_object, items),
                  mat_identity(items[0].rs.n))


# ---------------------------------------------------------------------------
# The bijection phi between noncrossing partitions and configurations.
# ---------------------------------------------------------------------------

def _validate_nc(group: WeylGroup, parts: NCTuple) -> None:
    if not parts or reduce(mat_mul, parts) != group.coxeter:
        raise ValueError("tuple does not multiply to the Coxeter element")
    if sum(group.abs_length(u) for u in parts) != group.rs.n:
        raise ValueError("tuple is not T-reduced: lengths do not add to the rank")


def _simple_roots(group: WeylGroup, mask: int) -> list[int]:
    """The simples of the wide subcategory W with root mask `mask`, in root
    order: the members x with no other member y such that Hom(M_y, M_x) is
    nonzero and dim M_y <= dim M_x.

    Such a map has a nonzero image, which lies in W as W is closed under
    kernels and cokernels.  Were M_x simple in W, the image would be M_x, so
    the map would be onto and, by dimension, an isomorphism, forcing y = x.
    Conversely a non-simple M_x has a simple subobject in W, which is such
    a y."""
    subobjects = group._subobjects
    return [x for x, below in enumerate(subobjects)
            if mask >> x & 1 and not mask & below]


def phi(group: WeylGroup, parts: NCTuple) -> DCollection:
    """Send an m-noncrossing partition to an m-configuration.

    The simples of the wide subcategory W(u_i) of the i-th part are placed
    in degree m+1-i.
    """
    rs = group.rs
    _require_categorical(rs)
    _validate_nc(group, parts)
    m = len(parts) - 1
    out = []
    for i, u in enumerate(parts, start=1):
        simples = _simple_roots(group, group._wide_mask(u))
        if len(simples) != group.abs_length(u):
            raise MutationError(f"wide subcategory has {len(simples)} simples, "
                                f"expected {group.abs_length(u)}")
        out.extend(DObj(rs, r, m + 1 - i) for r in simples)
    result = collection(out)
    if not is_m_config(result, m):
        raise MutationError("phi produced a non-configuration")
    return result


def phi_inverse(group: WeylGroup, col: DCollection, m: int) -> NCTuple:
    """Send an m-configuration to its m-noncrossing partition: chunk the
    configuration by degree (degree d contributes part m+1-d) and multiply
    the reflections of each chunk in exceptional order."""
    if not is_m_config(col, m):
        raise ValueError("input is not an m-configuration")
    seq = order_config(col)
    parts = []
    for i in range(1, m + 2):
        chunk = [x for x in seq if x.degree == m + 1 - i]
        u = reduce(mat_mul, map(reflection_of_object, chunk), group.identity)
        if group.abs_length(u) != len(chunk):
            raise MutationError("chunk product is not T-reduced")
        parts.append(u)
    result = tuple(parts)
    _validate_nc(group, result)
    return result


# ---------------------------------------------------------------------------
# JSON encoding of noncrossing partitions.
# ---------------------------------------------------------------------------

def nc_to_dict(group: WeylGroup, parts: NCTuple, with_matrices: bool = False) -> dict:
    words = []
    for u in parts:
        word = reflection_factorizations(group, u, first_only=True)[0]
        words.append([list(group.rs.positive_roots[r]) for r in word])
    data: dict = {"reflection_words": words}
    if with_matrices:
        data["matrices"] = [[list(row) for row in u] for u in parts]
    return data


def nc_from_dict(group: WeylGroup, data: dict) -> NCTuple:
    rs = group.rs
    try:
        words = [[tuple(dim) for dim in word] for word in data["reflection_words"]]
        if not all(type(c) is int for word in words for dim in word for c in dim):
            raise TypeError   # a bool or float would hash equal to an int
    except (KeyError, TypeError):
        raise ValueError(f"noncrossing record {data!r} is not of the form "
                         '{"reflection_words": [[root, ...], ...]}') from None
    words = [[rs.root_of(dim) for dim in word] for word in words]
    return tuple(reduce(mat_mul, (reflection_matrix(rs, r) for r in word),
                        group.identity) for word in words)
