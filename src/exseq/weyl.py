"""Weyl-group layer: reflections, absolute length, noncrossing partitions.

Group elements are integer matrices acting on the simple-root basis of K_0
(column convention).  An m-noncrossing partition is an (m+1)-tuple of
elements whose product is the Coxeter element c with additive absolute
lengths; phi sends such a tuple to a configuration by factoring each part
into reflections, reading the reflections as exceptional modules, and
collecting the simples of the wide subcategories they generate.
"""
from __future__ import annotations

from functools import reduce
from typing import Iterable, Iterator

from .derived import DObj, nonzero_exts, shift
from .roots import (
    DimVector, IntMatrix, RootSystemData, fuss_catalan, mat_identity, mat_mul,
    mat_vec, null_space,
)
from .sequences import MutationError, complete_sequence, is_exceptional
from .silting import DCollection, collection, is_m_config, order_config

WeylElt = IntMatrix
NCTuple = tuple[WeylElt, ...]


def reflection_matrix(rs: RootSystemData, root: int) -> WeylElt:
    """The reflection along a positive root, as a matrix on column vectors."""
    n = rs.n
    alpha = rs.positive_roots[root]
    aa = sum(alpha[i] * rs.sym_matrix[i][j] * alpha[j]
             for i in range(n) for j in range(n))
    cols = []
    for j in range(n):
        pairing = sum(rs.sym_matrix[i][j] * alpha[i] for i in range(n))
        coeff, rem = divmod(2 * pairing, aa)
        if rem:
            raise MutationError("non-integral reflection matrix entry")
        cols.append(tuple(
            (1 if i == j else 0) - coeff * alpha[i] for i in range(n)
        ))
    return tuple(zip(*cols))


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
    absolute length and its inverse, so every query on [1, c] is a lookup.
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

        interval = {self.coxeter: (n, c_inv)}
        level = [self.coxeter]
        for length in range(n - 1, -1, -1):
            below = []
            for u in level:
                u_inv = interval[u][1]
                normals = [mat_vec(rs.sym_matrix, f) for f in _fixed_space(u)]
                for t, alpha in zip(self.reflections, rs.positive_roots):
                    if any(sum(a * g for a, g in zip(alpha, normal))
                           for normal in normals):
                        continue
                    tu = mat_mul(t, u)
                    if tu not in interval:
                        interval[tu] = (length, mat_mul(u_inv, t))
                        below.append(tu)
            level = below
        expected = fuss_catalan(rs, 1)
        if len(interval) != expected:
            raise MutationError(
                f"descent from c found {len(interval)} elements, expected {expected}"
            )
        self._interval = interval
        self.elements: tuple[WeylElt, ...] = tuple(sorted(interval))

    def inverse(self, w: WeylElt) -> WeylElt:
        """The inverse of an element of [1, c]."""
        return self._interval[w][1]

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

    def split(v: WeylElt, parts: int, prefix: tuple[WeylElt, ...]) -> None:
        if parts == 1:
            out.append(prefix + (v,))
            return
        lv = group.abs_length(v)
        for u in group.elements:
            lu = group.abs_length(u)
            if lu > lv:
                continue
            rest = mat_mul(group.inverse(u), v)
            # Both factors of a T-reduced split of v <= c lie below v, so
            # the lookup on [1, c] decides the split exactly.
            if group.below_coxeter(rest) and group.abs_length(rest) == lv - lu:
                split(rest, parts - 1, prefix + (u,))

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
    words = _factorization_words(group, w, group.abs_length(w))
    if first_only:
        return [next(words)]
    return list(words)


def _factorization_words(group: WeylGroup, w: WeylElt, length: int
                         ) -> Iterator[tuple[int, ...]]:
    if length == 0:
        yield ()
        return
    for r, t in enumerate(group.reflections):
        rest = mat_mul(t, w)
        if group.below_coxeter(rest) and group.abs_length(rest) == length - 1:
            for tail in _factorization_words(group, rest, length - 1):
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
# Wide subcategories and their simples.
# ---------------------------------------------------------------------------

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
# The bijection phi between noncrossing partitions and configurations.
# ---------------------------------------------------------------------------

def _validate_nc(group: WeylGroup, parts: NCTuple) -> None:
    if reduce(mat_mul, parts, group.identity) != group.coxeter:
        raise ValueError("tuple does not multiply to the Coxeter element")
    if sum(group.abs_length(u) for u in parts) != group.rs.n:
        raise ValueError("tuple is not T-reduced: lengths do not add to the rank")


def phi(group: WeylGroup, parts: NCTuple) -> DCollection:
    """Send an m-noncrossing partition to an m-configuration.

    Each part is factored into reflections (first word in deterministic
    order; the result is word-independent), the reflections are read as
    exceptional modules, and the simples of the wide subcategory of each
    chunk are placed in degree m+1-i.
    """
    rs = group.rs
    _validate_nc(group, parts)
    m = len(parts) - 1
    chunks = []
    for u in parts:
        word = reflection_factorizations(group, u, first_only=True)[0]
        chunks.append(tuple(DObj(rs, r, 0) for r in word))
    full = tuple(x for chunk in chunks for x in chunk)
    if not is_exceptional(full):
        raise MutationError("reduced factorization did not give an exceptional sequence")
    out = []
    for i, chunk in enumerate(chunks, start=1):
        if not chunk:
            continue
        simples = simples_of_wide(wide_subcategory(chunk), expected_rank=len(chunk))
        out.extend(shift(x, m + 1 - i) for x in simples)
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
        words = [[rs.root_of(tuple(dim)) for dim in word]
                 for word in data["reflection_words"]]
    except (KeyError, TypeError):
        raise ValueError(f"noncrossing record {data!r} is not of the form "
                         '{"reflection_words": [[root, ...], ...]}') from None
    return tuple(reduce(mat_mul, (reflection_matrix(rs, r) for r in word),
                        group.identity) for word in words)
