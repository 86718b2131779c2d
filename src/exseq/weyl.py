"""Weyl-group layer: reflections, absolute length, noncrossing partitions.

An element u of [1, c] is its wide subcategory W(u) = {X : t_X <= u}, a
bitmask over the positive roots, as W(u) determines u (Ingalls-Thomas).  An
m-noncrossing partition is an (m+1)-tuple of masks whose elements multiply
to the Coxeter element c with additive absolute lengths.  Perpendicular
masks answer all of [1, c]; phi places the simples of each W(u), read off
the Hom table, in degrees m, ..., 0.  Integer matrices on K_0 (column
convention) serve only the listing order, WeylGroup.matrix and records.
"""
from __future__ import annotations

from functools import cache, reduce
from operator import and_, mul, or_
from typing import Iterable, Iterator

from .derived import DObj, _require_categorical
from .roots import (
    DimVector, IntMatrix, RootSystemData, fuss_catalan, mat_identity, mat_mul,
    perp_masks,
)
from .sequences import MutationError, _bits, _words
from .silting import DCollection, collection, is_m_config

WeylElt = IntMatrix
NCTuple = tuple[int, ...]


def _coroot(rs: RootSystemData, root: int) -> DimVector:
    """The vector beta with reflection_matrix(rs, root) = id - alpha beta^T:
    beta_j = 2 (alpha, e_j) / (alpha, alpha) under rs.sym_matrix."""
    alpha = rs.positive_roots[root]
    pairings = [sum(map(mul, alpha, column)) for column in zip(*rs.sym_matrix)]
    aa = sum(map(mul, pairings, alpha))
    if any(2 * p % aa for p in pairings):
        raise MutationError("non-integral reflection matrix entry")
    return tuple(2 * p // aa for p in pairings)


def reflection_matrix(rs: RootSystemData, root: int) -> WeylElt:
    """The reflection along a positive root, as a matrix on column vectors."""
    beta = _coroot(rs, root)
    return tuple(tuple(int(i == j) - a * b for j, b in enumerate(beta))
                 for i, a in enumerate(rs.positive_roots[root]))


class WeylGroup:
    """The noncrossing interval [1, c] of a Weyl group, c = s_1 ... s_n: the
    fuss_catalan(rs, 1) elements below c in the absolute order, as wide
    masks.  u <= v exactly when the mask of u lies in that of v; `identity`
    is 0, `coxeter` the mask of every root, and the reflection along root x
    is 1 << x.  The interval is found by descent from c, whose matrix is
    rs.coxeter_matrix: below u lie the t_x.u for x in W(u), with W(t_x.u) =
    W(u) & perp[x] (roots.perp_masks, the zeros of column x of
    rs.pairing), as the terms after x in an exceptional sequence lie in its
    perpendicular category.  A new mask gets its matrix by one rank-one
    update; the matrices order `elements`, and so every listing.  For the
    A, D, E families, phi reads the simples of each W(u) off the masks of
    the roots y != x with a nonzero map M_y -> M_x and dim M_y <= dim M_x,
    per root x.
    """

    def __init__(self, rs: RootSystemData):
        self.rs = rs
        self._perp = perp = perp_masks(rs)
        self.identity = 0
        self.coxeter = full = (1 << len(rs.positive_roots)) - 1
        coroots = [_coroot(rs, r) for r in range(len(rs.positive_roots))]
        self._matrix = matrix = {full: rs.coxeter_matrix}
        for mask, x, child in _descent(perp, full):
            # t_x.u = u - alpha (beta^T u) for t_x = id - alpha beta^T.
            u = matrix[mask]
            bu = [sum(map(mul, coroots[x], col)) for col in zip(*u)]
            matrix[child] = tuple(tuple(y - a * z for y, z in zip(row, bu))
                                  for a, row in zip(rs.positive_roots[x], u))
        self._mask_of = {u: mask for mask, u in matrix.items()}
        expected = fuss_catalan(rs, 1)
        if len(self._mask_of) != expected or len(matrix) != expected:
            raise MutationError(f"descent from c found {len(self._mask_of)} "
                                f"elements, expected {expected}")
        self.elements: tuple[int, ...] = tuple(sorted(matrix, key=matrix.__getitem__))

        self._subobjects: tuple[int, ...] | None = None
        if rs.hom_table is not None:
            hom = rs.hom_table[0]
            heights = [sum(root) for root in rs.positive_roots]
            self._subobjects = tuple(
                sum(1 << y for y, h in enumerate(heights)
                    if y != x and hom[y][x] and h <= heights[x])
                for x in range(len(heights)))

    def matrix(self, u: int) -> WeylElt:
        """The matrix of an element of [1, c]."""
        return self._matrix[u]

    def abs_length(self, u: int) -> int:
        """The length of the T-reduced words of u in [1, c]; ValueError off it."""
        if not self.below_coxeter(u):
            raise ValueError("element is not below the Coxeter element in absolute order")
        return len(next(_words(self._perp, u)))

    def below_coxeter(self, u: int) -> bool:
        """Whether u is the mask of an element below c in the absolute order."""
        return u in self._matrix


def _descent(perp: tuple[int, ...], top: int) -> Iterator[tuple[int, int, int]]:
    """The wide masks below `top`, each once as (mask, x, mask & perp[x]),
    after the mask it descends from: the closure of `top` under the
    children mask & perp[x], x in mask."""
    seen, stack = {top}, [top]
    while stack:
        mask = stack.pop()
        for x in _bits(mask):
            child = mask & perp[x]
            if child not in seen:
                seen.add(child)
                stack.append(child)
                yield mask, x, child


def _left_perp(perp: tuple[int, ...], mask: int) -> int:
    """The AND of perp[x] over the roots x of `mask`; -1 for no roots."""
    return reduce(and_, map(perp.__getitem__, _bits(mask)), -1)


def _check_chain(group: WeylGroup, parts: Iterable[int], error: type[Exception]) -> None:
    """Raise `error` unless the parts are a T-reduced factorization of c: each
    part u lies in [1, v], v what the parts before it leave (u^-1 v has mask
    W(v) & the perpendicular of W(u)), and the last part leaves nothing."""
    remaining = group.coxeter
    for u in parts:
        if u & ~remaining or not group.below_coxeter(u):
            raise error("tuple is not T-reduced: lengths do not add to the rank")
        remaining &= _left_perp(group._perp, u)
    if remaining:
        raise error("tuple does not multiply to the Coxeter element")


def generate_weyl(rs: RootSystemData) -> WeylGroup:
    return WeylGroup(rs)


# ---------------------------------------------------------------------------
# Noncrossing partitions.
# ---------------------------------------------------------------------------

def enumerate_m_nc(group: WeylGroup, m: int) -> list[NCTuple]:
    """All (m+1)-tuples multiplying to the Coxeter element with additive
    reflection lengths, in ascending order of their matrices; m = 0 gives
    (c,).  A depth-first walk fixes one part at a time.  What a prefix
    leaves, v, splits as u times the T-reduced cofactor u^-1 v for each u in
    [1, v], the masks below W(v); W(u^-1 v) = W(v) & the perpendicular of
    W(u).  Once v is the identity, so is every later part.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    perp, matrix = group._perp, group._matrix
    left_perp = cache(lambda u: _left_perp(perp, u))
    # [1, v] descending, so that the stack hands the parts out ascending.
    below = cache(lambda v: sorted([v, *(child for _, _, child in _descent(perp, v))],
                                   key=matrix.__getitem__, reverse=True))
    out: list[NCTuple] = []
    stack = [((), group.coxeter)]
    while stack:
        prefix, v = stack.pop()
        if len(prefix) == m or not v:
            out.append(prefix + (v,) + (0,) * (m - len(prefix)))
        else:
            stack += [(prefix + (u,), v & left_perp(u)) for u in below(v)]
    return out


def _count_m_nc(group: WeylGroup, m: int) -> int:
    """len(enumerate_m_nc(group, m)), without listing.  The k-tuples after a
    prefix that leaves v number count_k(v), the sum of count_{k-1}(W(v) &
    perp W(u)) over u in [1, v], and count_0 = 1.  As u -> u^-1 v permutes
    [1, v], that is the sum of count_{k-1} over [1, v].  Each [1, v] is a
    bitset over [1, c] by size: v and the union of those of its children.
    The sum is taken by bit planes: plane j holds the elements whose count
    has bit j set, so the sum over [1, v] is that of 2^j times the number of
    bits [1, v] shares with plane j."""
    if m < 0:
        raise ValueError("m must be non-negative")
    if m <= 1:
        return len(group.elements) if m else 1
    below: dict[int, int] = {}
    for i, v in enumerate(sorted(group.elements, key=int.bit_count)):
        below[v] = reduce(or_, (below[v & group._perp[x]] for x in _bits(v)), 1 << i)
    counts = [b.bit_count() for b in below.values()]     # count_1 on [1, c]
    for _ in range(m - 2):
        planes = [(j, int("".join("01"[c >> j & 1] for c in reversed(counts)), 2))
                  for j in range(max(counts).bit_length())]
        counts = [sum((b & plane).bit_count() << j for j, plane in planes)
                  for b in below.values()]
    return sum(counts)


# ---------------------------------------------------------------------------
# The bijection phi between noncrossing partitions and configurations.
# ---------------------------------------------------------------------------

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
    _check_chain(group, parts, ValueError)
    m = len(parts) - 1
    out = []
    for i, u in enumerate(parts, start=1):
        simples = _simple_roots(group, u)
        if len(simples) != group.abs_length(u):
            raise MutationError(f"wide subcategory has {len(simples)} simples, "
                                f"expected {group.abs_length(u)}")
        out.extend(DObj(rs, r, m + 1 - i) for r in simples)
    result = collection(out)
    if not is_m_config(result, m):
        raise MutationError("phi produced a non-configuration")
    return result


def phi_inverse(group: WeylGroup, col: DCollection, m: int) -> NCTuple:
    """Send an m-configuration to its m-noncrossing partition: degree d
    gives part m+1-d, the u whose W(u) is generated by the degree-d roots C.
    That is the double perpendicular: the AND of perp[y] over the roots y of
    the right perpendicular of C, those with C in perp[y].  The parts must
    pass the chain check of phi."""
    if not is_m_config(col, m):
        raise ValueError("input is not an m-configuration")
    return _phi_inverse(group, col, m)


def _phi_inverse(group: WeylGroup, col: DCollection, m: int) -> NCTuple:
    """phi_inverse without the check of its input, for a collection already
    known to be an m-configuration; the chain check still runs."""
    perp, full = group._perp, group.coxeter
    parts = []
    for degree in range(m, -1, -1):
        chunk = sum(1 << x.root for x in col.objects if x.degree == degree)
        right = sum(1 << y for y, left in enumerate(perp) if not chunk & ~left)
        parts.append(full & _left_perp(perp, right))
    _check_chain(group, parts, MutationError)
    return tuple(parts)


# ---------------------------------------------------------------------------
# JSON encoding of noncrossing partitions.
# ---------------------------------------------------------------------------

def nc_to_dict(group: WeylGroup, parts: NCTuple, with_matrices: bool = False) -> dict:
    roots = group.rs.positive_roots
    data: dict = {"reflection_words": [
        [list(roots[r]) for r in next(_words(group._perp, u))] for u in parts]}
    if with_matrices:
        data["matrices"] = [[list(row) for row in group.matrix(u)] for u in parts]
    return data


def nc_words(rs: RootSystemData, data: dict) -> list[list[int]]:
    """The reflection words of a noncrossing record, as root indices."""
    try:
        words = [[tuple(dim) for dim in word] for word in data["reflection_words"]]
        if not all(type(c) is int for word in words for dim in word for c in dim):
            raise TypeError   # a bool or float would hash equal to an int
    except (KeyError, TypeError):
        raise ValueError(f"noncrossing record {data!r} is not of the form "
                         '{"reflection_words": [[root, ...], ...]}') from None
    return [[rs.root_of(dim) for dim in word] for word in words]


def nc_from_words(group: WeylGroup, words: list[list[int]]) -> NCTuple:
    """The m-noncrossing partition whose parts are the products of the
    reflections along the words; ValueError unless the products, not the
    words, multiply to c and are T-reduced."""
    one = mat_identity(group.rs.n)
    products = [reduce(mat_mul, (group.matrix(1 << r) for r in word), one) for word in words]
    if reduce(mat_mul, products, one) != group.matrix(group.coxeter):
        raise ValueError("tuple does not multiply to the Coxeter element")
    # -1, no element, fails the chain: a factor of a T-reduced
    # factorization of c lies below c (Hurwitz moves bring it to the front).
    parts = tuple(group._mask_of.get(u, -1) for u in products)
    _check_chain(group, parts, ValueError)
    return parts
