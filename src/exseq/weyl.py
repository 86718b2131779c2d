"""Weyl-group layer: reflections, absolute length, noncrossing partitions.

Group elements are integer matrices acting on the simple-root basis of K_0
(column convention).  An m-noncrossing partition is an (m+1)-tuple of
elements whose product is the Coxeter element c with additive absolute
lengths.  Each u in [1, c] carries its wide subcategory W(u) = {X : t_X <= u}
as a bitmask over the positive roots.  W(u) determines u, so [1, c] is
answered by perpendicular masks alone: its intervals, cofactors and reduced
words, and phi_inverse, which takes each degree to the double perpendicular
of its roots.  phi places the simples of each W(u), read off the Hom table,
in degrees m, ..., 0.  Matrices serve the JSON edge and phi's input check.
"""
from __future__ import annotations

from functools import cache, reduce
from operator import and_, mul
from typing import Iterable, Iterator

from .derived import DObj, _require_categorical
from .roots import (
    DimVector, IntMatrix, RootSystemData, fuss_catalan, mat_identity, mat_mul,
    perp_masks,
)
from .sequences import MutationError, _bits, _words
from .silting import DCollection, collection, is_m_config

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


class WeylGroup:
    """The noncrossing interval [1, c] of a Weyl group, with its reflections
    and Coxeter element c = s_1 ... s_n.

    [1, c] holds the elements below c in the absolute order; it has the
    Catalan number fuss_catalan(rs, 1) of elements, far fewer than the
    group.  Each element u carries its absolute length and its wide mask,
    the roots of the reflections t <= u: the indecomposables of the wide
    subcategory W(u), which determines u (Ingalls-Thomas).  u <= v exactly
    when the mask of u lies in the mask of v.  The interval is found by
    descent from (c, every root): below u lie the t_x.u for x in W(u), with
    W(t_x.u) = W(u) & perp[x] (roots.perp_masks), as the terms after x in
    an exceptional sequence lie in its perpendicular category.  A new mask
    costs one rank-one update of u.  For the A, D, E families the group
    also keeps, for each root x, the mask of the other roots y with a
    nonzero map M_y -> M_x and dim M_y <= dim M_x, read off the Hom table;
    phi reads the simples of each W(u) from these.
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
        self._perp = perp = perp_masks(rs)
        self._coroots = tuple(_coroot(rs, r) for r in range(len(rs.positive_roots)))

        full = (1 << len(rs.positive_roots)) - 1
        self._by_mask = by_mask = {full: self.coxeter}
        self._interval = interval = {self.coxeter: (n, full)}
        for mask, x, child in _descent(perp, full):
            u = by_mask[mask]
            tu = by_mask[child] = self._reflect(x, u)
            interval[tu] = (interval[u][0] - 1, child)
        expected = fuss_catalan(rs, 1)
        if len(interval) != expected or len(by_mask) != expected:
            raise MutationError(f"descent from c found {len(interval)} elements, "
                                f"expected {expected}")
        self.elements: tuple[WeylElt, ...] = tuple(sorted(interval))

        self._subobjects: tuple[int, ...] | None = None
        if rs.hom_table is not None:
            hom = rs.hom_table[0]
            heights = [sum(root) for root in rs.positive_roots]
            self._subobjects = tuple(
                sum(1 << y for y, h in enumerate(heights)
                    if y != x and hom[y][x] and h <= heights[x])
                for x in range(len(heights)))

    def _reflect(self, r: int, u: WeylElt) -> WeylElt:
        """t.u for the reflection t = id - alpha beta^T along root r: the
        rank-one update u - alpha (beta^T u)."""
        bu = [sum(map(mul, self._coroots[r], col)) for col in zip(*u)]
        return tuple(tuple(y - a * z for y, z in zip(row, bu))
                     for a, row in zip(self.rs.positive_roots[r], u))

    def _wide_mask(self, w: WeylElt) -> int:
        """The roots of W(w) = {X : t_X <= w}, as a bitmask; w in [1, c]."""
        return self._interval[w][1]

    def abs_length(self, w: WeylElt) -> int:
        """The reflection length of an element of [1, c]; ValueError off it."""
        if w not in self._interval:
            raise ValueError("element is not below the Coxeter element in "
                             "absolute order")
        return self._interval[w][0]

    def below_coxeter(self, w: WeylElt) -> bool:
        """Whether w lies below c in the absolute order."""
        return w in self._interval


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


def generate_weyl(rs: RootSystemData) -> WeylGroup:
    return WeylGroup(rs)


# ---------------------------------------------------------------------------
# Noncrossing partitions and reflection factorizations.
# ---------------------------------------------------------------------------

def enumerate_m_nc(group: WeylGroup, m: int) -> list[NCTuple]:
    """All (m+1)-tuples multiplying to the Coxeter element with additive
    reflection lengths, in ascending order.  m = 0 gives the singleton (c,).

    A depth-first walk fixes one part at a time.  What a prefix leaves, v,
    splits as u times the T-reduced cofactor u^-1 v for each u in [1, v],
    the masks below W(v); W(u^-1 v) = W(v) & the perpendicular of W(u).
    Once v is the identity, so is every later part.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    perp, by_mask = group._perp, group._by_mask
    left_perp = cache(lambda u: _left_perp(perp, u))
    # [1, v] descending, so that the stack hands the parts out ascending.
    below = cache(lambda v: sorted([v, *(child for _, _, child in _descent(perp, v))],
                                   key=by_mask.__getitem__, reverse=True))
    out: list[NCTuple] = []
    stack = [((), group._wide_mask(group.coxeter))]
    while stack:
        prefix, v = stack.pop()
        if len(prefix) == m or not v:
            out.append(prefix + (by_mask[v],) + (group.identity,) * (m - len(prefix)))
        else:
            stack += [(prefix + (by_mask[u],), v & left_perp(u)) for u in below(v)]
    return out


def reflection_factorizations(group: WeylGroup, w: WeylElt,
                              first_only: bool = False) -> list[tuple[int, ...]]:
    """T-reduced words for w, as tuples of positive-root indices.

    Requires w below the Coxeter element in absolute order.
    """
    if not group.below_coxeter(w):
        raise ValueError("element is not below the Coxeter element in absolute order")
    words = _words(group._perp, group._wide_mask(w))
    return [next(words)] if first_only else list(words)


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
    # A factor of a T-reduced factorization of c lies below c (Hurwitz
    # moves bring it to the front), so a part off [1, c] gets this verdict.
    if (not all(map(group.below_coxeter, parts))
            or sum(map(group.abs_length, parts)) != group.rs.n):
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
    """Send an m-configuration to its m-noncrossing partition: degree d
    gives part m+1-d, the u whose W(u) is generated by the degree-d roots C.
    That is the double perpendicular: the AND of perp[y] over the roots y of
    the right perpendicular of C, those with C in perp[y].

    The parts must form a chain: each lies in what the parts before it leave
    of W(c), and leaves that & the perpendicular of its own mask.  The chain
    ends at 0 exactly when the parts are a T-reduced factorization of c.
    """
    if not is_m_config(col, m):
        raise ValueError("input is not an m-configuration")
    perp, full = group._perp, group._wide_mask(group.coxeter)
    remaining, parts = full, []
    for degree in range(m, -1, -1):
        chunk = sum(1 << x.root for x in col.objects if x.degree == degree)
        right = sum(1 << y for y, left in enumerate(perp) if not chunk & ~left)
        mask = full & _left_perp(perp, right)
        if mask & ~remaining or mask not in group._by_mask:
            raise MutationError("chunk does not give a T-reduced part")
        remaining &= _left_perp(perp, mask)
        parts.append(group._by_mask[mask])
    if remaining:
        raise MutationError("parts do not multiply to the Coxeter element")
    return tuple(parts)


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
    return tuple(reduce(mat_mul, (group.reflections[rs.root_of(dim)] for dim in word),
                        group.identity) for word in words)
