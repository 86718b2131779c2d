"""Silting objects, Hom<=0-configurations, and the mutation bijection.

A DCollection is an unordered basic object (a set of distinct stalk
indecomposables).  Predicates here are exact, each derived from the
function that explains its failure.  Enumeration searches for n-cliques of
the pairwise compatibility graph on the indecomposables of a degree window;
a clique is already silting, and a configuration clique is already a
configuration, because the cycle condition H4 holds on every set of
indecomposables in Dynkin type (see enumerate_configs).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .derived import (
    DObj, WindowSpec, ext_dim, hom_dim, nonzero_exts,
    obj_from_dict, obj_to_dict, window_objects,
)
from .roots import RootSystemData
from .sequences import (
    ExcSeq, MutationError, is_exceptional, mu_rev, mu_rev_inverse,
)


@dataclass(frozen=True)
class DCollection:
    """A basic object: a nonempty set of distinct indecomposables over one
    root system, held in (degree, root) order so that equal sets are equal
    tuples.  Build it with collection(), which puts it in that form."""

    objects: tuple[DObj, ...]

    @property
    def summands(self) -> frozenset[DObj]:
        return frozenset(self.objects)

    @property
    def rs(self) -> RootSystemData:
        return self.objects[0].rs

    def sorted(self) -> tuple[DObj, ...]:
        return self.objects

    def __repr__(self):
        inner = ", ".join(repr(x) for x in self.objects)
        return f"DCollection({{{inner}}})"


def collection(objs: Iterable[DObj]) -> DCollection:
    """The collection of the distinct objects in objs."""
    items = sorted(set(objs), key=lambda x: (x.degree, x.root))
    if not items:
        raise ValueError("a collection needs at least one summand")
    if any(x.rs is not items[0].rs for x in items):
        raise ValueError("summands over different root systems")
    return DCollection(tuple(items))


def collection_to_list(col: DCollection) -> list[dict]:
    return [obj_to_dict(x) for x in col.sorted()]


def collection_from_list(rs: RootSystemData, data: list[dict]) -> DCollection:
    if not isinstance(data, list):
        raise ValueError(f"collection record {data!r} is not a list of objects")
    return collection(obj_from_dict(rs, d) for d in data)


# ---------------------------------------------------------------------------
# Pairwise compatibility and the predicates.
# ---------------------------------------------------------------------------

def _positive_ext(a: DObj, b: DObj) -> int | None:
    """The least i >= 1 with Ext^i(a, b) nonzero, or None."""
    return next((i for i, _ in nonzero_exts(a, b) if i >= 1), None)


def _negative_ext(a: DObj, b: DObj) -> int | None:
    """The least i <= -1 with Ext^i(a, b) nonzero, or None."""
    return next((i for i, _ in nonzero_exts(a, b) if i <= -1), None)


def _explain_not_partial_silting(objs: tuple[DObj, ...]) -> str | None:
    for a in objs:
        for b in objs:
            i = _positive_ext(a, b)
            if i is not None:
                return f"Ext^{i}({a!r}, {b!r}) is nonzero"
    return None


def explain_not_silting(col: DCollection) -> str | None:
    """A human-readable reason col is not silting, or None when it is."""
    if len(col.objects) != col.rs.n:
        return f"silting needs {col.rs.n} summands, found {len(col.objects)}"
    return _explain_not_partial_silting(col.sorted())


def explain_not_config(col: DCollection) -> str | None:
    """A human-readable reason col is not a Hom<=0-configuration, or None."""
    objs = col.sorted()
    if len(objs) != col.rs.n:
        return f"a configuration needs {col.rs.n} summands, found {len(objs)}"
    for a in objs:
        for b in objs:
            if a != b and hom_dim(a, b):
                return f"Hom({a!r}, {b!r}) is nonzero"
            i = _negative_ext(a, b)
            if i is not None:
                return f"Ext^{i}({a!r}, {b!r}) is nonzero"
    if _ext1_digraph_has_cycle(objs):
        return "the Ext^1 digraph on the summands has a cycle"
    return None


def is_partial_silting(col: DCollection) -> bool:
    return _explain_not_partial_silting(col.sorted()) is None


def is_silting(col: DCollection) -> bool:
    return explain_not_silting(col) is None


def cluster_tilting_window(m: int) -> WindowSpec:
    return WindowSpec(1, m, plus_injectives=True)


def config_window(m: int) -> WindowSpec:
    return WindowSpec(0, m)


def config_minus_window(m: int) -> WindowSpec:
    return WindowSpec(0, m, minus_projectives=True)


def shifted_silting_window(m: int) -> WindowSpec:
    return WindowSpec(1, m)


def is_m_cluster_tilting(col: DCollection, m: int) -> bool:
    """Silting and contained in degrees 1..m together with the injectives
    in degree 0."""
    if m < 1:
        raise ValueError("m must be at least 1")
    w = cluster_tilting_window(m)
    return all(w.contains(x) for x in col.objects) and is_silting(col)


def digraph_has_cycle(succ: list[list[int]]) -> bool:
    """Cycle detection on adjacency lists, iterative three-colour DFS."""
    k = len(succ)
    state = [0] * k  # 0 unvisited, 1 on stack, 2 done
    for start in range(k):
        if state[start]:
            continue
        stack = [(start, iter(succ[start]))]
        state[start] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if state[nxt] == 1:
                    return True
                if state[nxt] == 0:
                    state[nxt] = 1
                    stack.append((nxt, iter(succ[nxt])))
                    advanced = True
                    break
            if not advanced:
                state[node] = 2
                stack.pop()
    return False


def _ext1_digraph_has_cycle(objs: tuple[DObj, ...]) -> bool:
    k = len(objs)
    return digraph_has_cycle([
        [j for j in range(k) if j != i and ext_dim(objs[i], objs[j], 1)]
        for i in range(k)
    ])


def is_hom_leq0_config(col: DCollection) -> bool:
    """The four configuration conditions: n summands; pairwise Hom vanishing;
    no negative self-extensions; acyclic Ext^1 digraph.  Exceptionality of
    the summands is automatic in Dynkin type."""
    return explain_not_config(col) is None


def is_m_config(col: DCollection, m: int) -> bool:
    if m < 0:
        raise ValueError("m must be non-negative")
    return (all(0 <= x.degree <= m for x in col.objects)
            and is_hom_leq0_config(col))


# ---------------------------------------------------------------------------
# Exhaustive enumeration.
# ---------------------------------------------------------------------------

def _cliques_of_size(count: int, neighbours: list[int], k: int) -> list[tuple[int, ...]]:
    """All k-cliques of the graph on vertices 0..count-1 whose neighbourhoods
    are the bitmasks `neighbours`, vertices ascending, in lexicographic order."""
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


# The Ext indices that each compatibility rule forbids between two distinct
# summands: Ext^i for i >= 1 in a silting object, Ext^i for i <= 0 (so Hom
# too) in a configuration.
_FORBIDS = {"silting": lambda i: i >= 1, "config": lambda i: i <= 0}
_NONZERO = bytes([48] + [49] * 255)    # byte 0 -> "0", any other -> "1"


def _row_masks(rows) -> list[int]:
    """Per row of a Hom array, the bitmask of the roots with a nonzero entry.
    Entries fit a byte: no Hom in Dynkin type exceeds 6 in dimension."""
    return [int(bytes(row).translate(_NONZERO)[::-1], 2) for row in rows]


def _compatibility_graph(rs: RootSystemData, w: WindowSpec,
                         rule: str) -> tuple[list[DObj], list[int]]:
    """The window's objects in (degree, root) order and their neighbourhoods,
    as bitmasks over that order, in the graph joining two objects when no
    Ext index that rule forbids is nonzero between them in either direction.

    For a = M_r[d] and b = M_s[e] with gap g = d - e, only four Ext spaces
    can be nonzero: Ext^g(a, b) = h0[r][s], Ext^(g+1)(a, b) = h1[r][s],
    Ext^(-g)(b, a) = h0[s][r] and Ext^(1-g)(b, a) = h1[s][r], with
    (h0, h1) = rs.hom_table.  So the roots in degree e that a excludes are
    the union of the rows, at r, of those of the four arrays whose index
    the rule forbids.

    Every object is compatible with itself, under either rule: stalks have
    no Ext^i(x, x) for i < 0, and every indecomposable of a Dynkin quiver is
    exceptional, so Ext^1(x, x) = 0 too.  So no object leaves the window.
    """
    objs = window_objects(rs, w)
    h0, h1 = rs.hom_table
    arrays = [_row_masks(t) for t in (h0, h1, zip(*h0), zip(*h1))]
    forbids = _FORBIDS[rule]
    layout: dict[int, tuple[int, list[int]]] = {}   # degree -> offset, roots
    for k, x in enumerate(objs):
        layout.setdefault(x.degree, (k, []))[1].append(x.root)
    full = (1 << len(rs.positive_roots)) - 1
    neighbours = []
    for k, a in enumerate(objs):
        mask = 0
        for degree, (offset, roots) in layout.items():
            g = a.degree - degree
            bad = 0
            for rows, i in zip(arrays, (g, g + 1, -g, 1 - g)):
                if forbids(i):
                    bad |= rows[a.root]
            if len(roots) == len(rs.positive_roots):
                mask |= (full & ~bad) << offset
            else:
                for j, root in enumerate(roots):
                    if not bad >> root & 1:
                        mask |= 1 << (offset + j)
        neighbours.append(mask & ~(1 << k))
    return objs, neighbours


def _enumerate(rs: RootSystemData, w: WindowSpec,
               rule: str) -> tuple[list[DObj], list[tuple[int, ...]]]:
    """The window's objects in (degree, root) order, and the n-cliques of
    the rule's compatibility graph on them as ascending index tuples into
    that list, in lexicographic order."""
    objs, neighbours = _compatibility_graph(rs, w, rule)
    return objs, _cliques_of_size(len(objs), neighbours, rs.n)


def _collections(objs: list[DObj], cliques: list[tuple[int, ...]]) -> list[DCollection]:
    """The cliques as collections.  Ascending indices into a list in
    (degree, root) order pick distinct objects already in the canonical
    order a DCollection holds, and the cliques come in lexicographic order."""
    return [DCollection(tuple(map(objs.__getitem__, idxs))) for idxs in cliques]


def enumerate_silting(rs: RootSystemData, w: WindowSpec) -> list[DCollection]:
    return _collections(*_enumerate(rs, w, "silting"))


def enumerate_configs(rs: RootSystemData, w: WindowSpec) -> list[DCollection]:
    """The configurations in the window: the n-cliques of the pairwise
    conditions, with no check of H4.

    H4 holds on any set of indecomposables in Dynkin type.  For stalks M[a]
    and N[b], Ext^1(M[a], N[b]) != 0 needs b = a - 1, where the degree
    drops, or b = a.  In the second case Ext^1_H(M, N) = D Hom(N, tau M) != 0,
    so N lies before M in the directed AR quiver.  Degrees never rise along
    an edge, so a cycle stays in one degree, where every edge goes strictly
    back in the AR order: there is none.  explain_not_config keeps H4, as
    the definition does.
    """
    return _collections(*_enumerate(rs, w, "config"))


# The kinds whose window m alone fixes, with that window and the
# compatibility rule their cliques satisfy.
_M_KINDS = {
    "m-cluster-tilting": (cluster_tilting_window, "silting"),
    "m-config": (config_window, "config"),
    "m-config-minus": (config_minus_window, "config"),
    "silting-deg1-window": (shifted_silting_window, "silting"),
}
M_WINDOW_KINDS = tuple(_M_KINDS)
ENUMERATION_KINDS = (*M_WINDOW_KINDS, "silting-in-window")


def enumerate_kind_indexed(rs: RootSystemData, kind: str, m: int,
                           window: WindowSpec | None = None
                           ) -> tuple[list[DObj], list[tuple[int, ...]]]:
    """enumerate_kind before the wrapping: the window's objects and the
    collections as ascending index tuples into them."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if kind == "silting-in-window":
        if window is None:
            raise ValueError("silting-in-window needs an explicit window")
        return _enumerate(rs, window, "silting")
    if kind not in _M_KINDS:
        raise ValueError(f"unknown enumeration kind {kind!r}")
    make_window, rule = _M_KINDS[kind]
    return _enumerate(rs, make_window(m), rule)


def enumerate_kind(rs: RootSystemData, kind: str, m: int,
                   window: WindowSpec | None = None) -> list[DCollection]:
    """Dispatch enumeration by kind name; m must be at least 1."""
    return _collections(*enumerate_kind_indexed(rs, kind, m, window))


# ---------------------------------------------------------------------------
# Ordering a collection into an exceptional sequence.
# ---------------------------------------------------------------------------

def _topo_sort(objs: list[DObj], has_edge) -> list[DObj]:
    """Topological order with edges pointing earlier -> later; root-index
    tie-break for determinism."""
    pending = sorted(objs, key=lambda x: x.root)
    indeg = {x: 0 for x in pending}
    for a in pending:
        for b in pending:
            if a != b and has_edge(a, b):
                indeg[b] += 1
    out = []
    while pending:
        ready = next((x for x in pending if indeg[x] == 0), None)
        if ready is None:
            raise MutationError("within-degree ordering graph has a cycle")
        pending.remove(ready)
        out.append(ready)
        for b in pending:
            if has_edge(ready, b):
                indeg[b] -= 1
    return out


def order_silting(col: DCollection) -> ExcSeq:
    """Order a silting object into an exceptional sequence: ascending degree,
    within one degree so that nonzero Homs point forward."""
    by_degree: dict[int, list[DObj]] = {}
    for x in col.objects:
        by_degree.setdefault(x.degree, []).append(x)
    seq: list[DObj] = []
    for d in sorted(by_degree):
        seq.extend(_topo_sort(by_degree[d], lambda a, b: hom_dim(a, b) != 0))
    result = tuple(seq)
    if not is_exceptional(result):
        raise MutationError("silting ordering failed to be exceptional")
    return result


def order_config(col: DCollection) -> ExcSeq:
    """Order a configuration into an exceptional sequence: descending degree,
    within one degree so that Ext^1 arrows point forward."""
    by_degree: dict[int, list[DObj]] = {}
    for x in col.objects:
        by_degree.setdefault(x.degree, []).append(x)
    seq: list[DObj] = []
    for d in sorted(by_degree, reverse=True):
        seq.extend(_topo_sort(by_degree[d], lambda a, b: ext_dim(a, b, 1) != 0))
    result = tuple(seq)
    if not is_exceptional(result):
        raise MutationError("configuration ordering failed to be exceptional")
    return result


def silting_to_config(col: DCollection) -> DCollection:
    """The bijection from silting objects to Hom<=0-configurations: order,
    apply mu_rev, forget the order.  Uses only negative or orthogonal
    mutations."""
    reason = explain_not_silting(col)
    if reason is not None:
        raise ValueError(f"not a silting object: {reason}")
    out, _signs = mu_rev(order_silting(col))
    result = collection(out)
    reason = explain_not_config(result)
    if reason is not None:
        raise MutationError(f"mu_rev of a silting object must be a configuration: {reason}")
    return result


def config_to_silting(col: DCollection) -> DCollection:
    """The inverse bijection: order the configuration, apply the inverse
    composite, forget the order.  Uses only non-negative or orthogonal
    mutations."""
    reason = explain_not_config(col)
    if reason is not None:
        raise ValueError(f"not a configuration: {reason}")
    out, _signs = mu_rev_inverse(order_config(col))
    result = collection(out)
    reason = explain_not_silting(result)
    if reason is not None:
        raise MutationError(f"inverse mu_rev of a configuration must be silting: {reason}")
    return result
