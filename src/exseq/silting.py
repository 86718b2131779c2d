"""Silting objects, Hom<=0-configurations, and the mutation bijection.

A DCollection is an unordered basic object (a set of distinct stalk
indecomposables).  Predicates here are exact, each derived from the
function that explains its failure.  The silting and configuration rules
are Ext-index ranges in derived.RULES: the predicates ask
derived.forbidden_ext, the enumeration graph reads the ranges.
Enumeration searches for n-cliques of the pairwise compatibility graph on
the indecomposables of a degree window; a clique is already silting, and
a configuration clique is already a configuration, because the cycle
condition H4 holds on every set of indecomposables in Dynkin type (see
enumerate_configs).
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable

from .derived import (
    RULES, DObj, WindowSpec, ext_dim, forbidden_ext, nonzero_exts, obj_from_dict,
    obj_to_dict, window_objects,
)
from .roots import RootSystemData
from .sequences import ExcSeq, MutationError, MutationSign, mu_rev, mu_rev_inverse


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
    return [obj_to_dict(x) for x in col.objects]


def collection_from_list(rs: RootSystemData, data: list[dict]) -> DCollection:
    if not isinstance(data, list):
        raise ValueError(f"collection record {data!r} is not a list of objects")
    return collection(obj_from_dict(rs, d) for d in data)


# ---------------------------------------------------------------------------
# Pairwise compatibility and the predicates.
# ---------------------------------------------------------------------------

def _explain_pairs(objs: tuple[DObj, ...], rule: str) -> str | None:
    """The first ordered pair of distinct summands with an Ext index the rule
    forbids, named with the least such index, or None."""
    for a in objs:
        for b in objs:
            if a != b:
                i = forbidden_ext(a, b, rule)
                if i == 0:
                    return f"Hom({a!r}, {b!r}) is nonzero"
                if i is not None:
                    return f"Ext^{i}({a!r}, {b!r}) is nonzero"
    return None


def explain_not_silting(col: DCollection) -> str | None:
    """A human-readable reason col is not silting, or None when it is."""
    if len(col.objects) != col.rs.n:
        return f"silting needs {col.rs.n} summands, found {len(col.objects)}"
    return _explain_pairs(col.objects, "silting")


def explain_not_config(col: DCollection) -> str | None:
    """A human-readable reason col is not a Hom<=0-configuration, or None."""
    objs = col.objects
    if len(objs) != col.rs.n:
        return f"a configuration needs {col.rs.n} summands, found {len(objs)}"
    reason = _explain_pairs(objs, "config")
    if reason is None and _topo_sort(objs, _ext1_edge, lambda x: x.root) is None:
        return "the Ext^1 digraph on the summands has a cycle"
    return reason


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

def _cliques_of_size(count: int, neighbours: list[int], k: int) -> memoryview:
    """All k-cliques of the graph on vertices 0..count-1 whose neighbourhoods
    are the bitmasks `neighbours`, vertices ascending, in lexicographic
    order, packed: a memoryview of format 'H' whose entries i*k .. i*k+k-1
    are the vertices of clique i.  k is at least 1.  Vertices are 2-byte
    indices, so count is at most 65,536 (the largest window, E8 at m = 3,
    has 368 objects).

    A depth-first search over candidate masks: the vertices after the last
    one chosen that are adjacent to every chosen vertex.  Two vertices from
    the end the clique is completed by the 2-cliques of its candidate mask.
    These masks repeat heavily (the link of a face of a generalized cluster
    complex is again one, Fomin-Reading 2005), so each mask's 2-cliques are
    listed once, as 4-byte records, and every prefix reaching that mask
    writes them with one join.  For k <= 2 no tail is read."""
    out = bytearray()
    code = [v.to_bytes(2, sys.byteorder) for v in range(count)]
    tails: dict[int, list[bytes]] = {}

    def pairs(mask: int) -> list[bytes]:
        found = tails[mask] = []
        while mask:
            low = mask & -mask
            mask ^= low
            a = low.bit_length() - 1
            head = code[a]
            rest = mask & neighbours[a]
            while rest:
                low = rest & -rest
                rest ^= low
                found.append(head + code[low.bit_length() - 1])
        return found

    def grow(prefix: bytes, need: int, cands: int) -> None:
        # need: the vertices still to choose after prefix
        if need == 0:
            out.extend(prefix)
            return
        while cands.bit_count() >= need:
            low = cands & -cands
            cands ^= low
            v = low.bit_length() - 1
            child = cands & neighbours[v]
            if child.bit_count() < need - 1:
                continue
            if need == 3:
                tail = tails.get(child)
                if tail is None:
                    tail = pairs(child)
                if tail:
                    p = prefix + code[v]
                    out.extend(p)
                    out.extend(p.join(tail))
            else:
                grow(prefix + code[v], need - 1, child)

    grow(b"", k, (1 << count) - 1)
    return memoryview(out).cast("H")


def _compatibility_graph(rs: RootSystemData, w: WindowSpec,
                         rule: str) -> tuple[list[DObj], list[int]]:
    """The window's objects in (degree, root) order and their neighbourhoods,
    as bitmasks over that order, in the graph joining two objects when no
    Ext index that rule forbids is nonzero between them in either direction.

    For a = M_r[d] and b = M_s[e] with gap g = d - e, only four Ext spaces
    can be nonzero: Ext^g(a, b) = h0[r][s], Ext^(g+1)(a, b) = h1[r][s],
    Ext^(-g)(b, a) = h0[s][r] and Ext^(1-g)(b, a) = h1[s][r], with
    (h0, h1) = rs.hom_table.  So the roots in degree e that a excludes are
    the union of the masks, at r, of those of the four arrays whose index
    the rule forbids, read from rs.hom_masks (rows of h0, h1, then columns).

    Every object is compatible with itself, under either rule: stalks have
    no Ext^i(x, x) for i < 0, and every indecomposable of a Dynkin quiver is
    exceptional, so Ext^1(x, x) = 0 too.  So no object leaves the window.
    """
    objs = window_objects(rs, w)
    arrays = rs.hom_masks
    lo, hi = RULES[rule]
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
                if lo <= i <= hi:
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
               rule: str) -> tuple[list[DObj], memoryview]:
    """The window's objects in (degree, root) order, and the n-cliques of
    the rule's compatibility graph on them, in lexicographic order, as one
    buffer of 2-byte indices into that list: clique i is
    flat[i*n:(i+1)*n], ascending."""
    objs, neighbours = _compatibility_graph(rs, w, rule)
    return objs, _cliques_of_size(len(objs), neighbours, rs.n)


def _collections(objs: list[DObj], flat: memoryview, n: int) -> list[DCollection]:
    """The packed n-cliques as collections.  Ascending indices into a list
    in (degree, root) order pick distinct objects already in the canonical
    order a DCollection holds, and the cliques come in lexicographic order.
    Each run of n objects is cut by zip from one iterator, not by a slice
    per clique."""
    return list(map(DCollection, zip(*[map(objs.__getitem__, flat)] * n)))


def enumerate_silting(rs: RootSystemData, w: WindowSpec) -> list[DCollection]:
    return _collections(*_enumerate(rs, w, "silting"), rs.n)


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
    return _collections(*_enumerate(rs, w, "config"), rs.n)


# The kinds whose window m alone fixes, with that window and the
# compatibility rule their cliques satisfy.
_M_KINDS = {
    "m-cluster-tilting": (cluster_tilting_window, "silting"),
    "m-config": (config_window, "config"),
    "m-config-minus": (config_minus_window, "config"),
    "silting-deg1-window": (shifted_silting_window, "silting"),
}
M_WINDOW_KINDS = tuple(_M_KINDS)


def enumerate_kind_indexed(rs: RootSystemData, kind: str, m: int
                           ) -> tuple[list[DObj], memoryview]:
    """enumerate_kind before the wrapping: the window's objects and the
    collections packed as one buffer of 2-byte indices into them (format
    'H'), collection i at flat[i*n:(i+1)*n], ascending, in the order
    enumerate_kind returns them."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if kind not in _M_KINDS:
        raise ValueError(f"unknown enumeration kind {kind!r}")
    make_window, rule = _M_KINDS[kind]
    return _enumerate(rs, make_window(m), rule)


def enumerate_kind(rs: RootSystemData, kind: str, m: int) -> list[DCollection]:
    """Dispatch enumeration by kind name; m must be at least 1.  For any
    other window use enumerate_silting or enumerate_configs."""
    return _collections(*enumerate_kind_indexed(rs, kind, m), rs.n)


# ---------------------------------------------------------------------------
# Ordering a collection into an exceptional sequence.
# ---------------------------------------------------------------------------

def _topo_sort(objs, has_edge, key) -> list[DObj] | None:
    """Topological order with edges pointing earlier -> later, the least key
    first among the objects ready, so the order with the least key sequence;
    None when there is a cycle."""
    pending = sorted(objs, key=key)
    succ = [[j for j, b in enumerate(pending) if a != b and has_edge(a, b)]
            for a in pending]
    indeg = [sum(j in targets for targets in succ) for j in range(len(pending))]
    out = []
    while len(out) < len(pending):
        i = next((j for j, d in enumerate(indeg) if d == 0), None)
        if i is None:
            return None
        indeg[i] = -1       # placed; its predecessors are all placed already
        out.append(pending[i])
        for j in succ[i]:
            indeg[j] -= 1
    return out


def _ext1_edge(a: DObj, b: DObj) -> bool:
    return ext_dim(a, b, 1) != 0


def _order(col: DCollection, key) -> ExcSeq:
    """The least-key topological order of the Ext digraph on the summands,
    a -> b when some Ext^i(a, b) is nonzero.  It has no Ext from a later
    term to an earlier one, so it is the key-least exceptional ordering."""
    seq = _topo_sort(col.objects, nonzero_exts, key)
    if seq is None:
        raise MutationError("the Ext digraph on the summands has a cycle")
    return tuple(seq)


def order_silting(col: DCollection) -> ExcSeq:
    """Order a silting object into an exceptional sequence: ascending degree
    (its Ext edges between degrees only rise), within one degree so that
    nonzero Homs point forward.  On any collection, the exceptional ordering
    with the least (degree, root) sequence; MutationError if there is none."""
    return _order(col, lambda x: (x.degree, x.root))


def order_config(col: DCollection) -> ExcSeq:
    """Order a configuration into an exceptional sequence: descending degree
    (its Ext edges between degrees only fall), within one degree so that
    Ext^1 arrows point forward.  On any collection, the exceptional ordering
    with the least (-degree, root) sequence; MutationError if there is none."""
    return _order(col, lambda x: (-x.degree, x.root))


def silting_to_config(col: DCollection) -> DCollection:
    """The bijection from silting objects to Hom<=0-configurations: order,
    apply mu_rev, forget the order.  Uses only negative or orthogonal
    mutations; MutationError if mu_rev uses a non-negative one."""
    reason = explain_not_silting(col)
    if reason is not None:
        raise ValueError(f"not a silting object: {reason}")
    out, signs = mu_rev(order_silting(col))
    if MutationSign.NONNEGATIVE in signs:
        raise MutationError("mu_rev of a silting object used a non-negative mutation")
    result = collection(out)
    reason = explain_not_config(result)
    if reason is not None:
        raise MutationError(f"mu_rev of a silting object must be a configuration: {reason}")
    return result


def config_to_silting(col: DCollection) -> DCollection:
    """The inverse bijection: order the configuration, apply the inverse
    composite, forget the order.  Uses only non-negative or orthogonal
    mutations; MutationError if the inverse composite uses a negative one."""
    reason = explain_not_config(col)
    if reason is not None:
        raise ValueError(f"not a configuration: {reason}")
    result = _config_to_silting(col)
    reason = explain_not_silting(result)
    if reason is not None:
        raise MutationError(f"inverse mu_rev of a configuration must be silting: {reason}")
    return result


def _config_to_silting(col: DCollection) -> DCollection:
    """config_to_silting without its checks, for a collection already known
    to be a configuration.  A caller that also knows which silting object
    the result must equal needs no check of the result either.  The sign
    check stays: it costs no mutation."""
    out, signs = mu_rev_inverse(order_config(col))
    if MutationSign.NEGATIVE in signs:
        raise MutationError("inverse mu_rev of a configuration used a negative mutation")
    return collection(out)
