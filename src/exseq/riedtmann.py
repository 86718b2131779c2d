"""Periodic combinatorial configurations and torsion classes.

A combinatorial configuration is a Hom-orthogonal family of indecomposables
that meets every object by a nonzero morphism; periodic means stable under
the autoequivalence F = [-2]tau^{-1}.  Periodicity makes every check finite:
F moves the degree down by 1 or 2 and stalk Homs reach one degree, so only
the orbit members near a seed or a probe window can interact.

The periodic checks run in index space: an object is a (root, degree) pair,
F and F^{-1} are the lookups rs.f_table and rs.f_inv_table, and the Homs
out of or into a root in the next degree up are bitmasks over the roots,
rs.hom_masks.  So orthogonality and covering are mask operations over the
roots of one degree at a time, with no DObj built until a result is
returned.

The torsion class of a collection M is A(M) = {X : Ext^i(M, X) = 0, i >= 1},
here always intersected with an explicit degree window.
"""
from __future__ import annotations

from dataclasses import dataclass

from .derived import (
    DObj, WindowSpec, _require_categorical, _window_masks, forbidden_ext,
    is_projective, window_objects,
)
from .sequences import MutationError
from .silting import DCollection, collection, is_hom_leq0_config, is_m_config


@dataclass(frozen=True)
class PeriodicConfig:
    """An F-stable family, stored as one fundamental domain of seeds."""

    seeds: DCollection


def _orbit(x: DObj, lo: int, hi: int) -> list[tuple[int, int]]:
    """The members of the F-orbit of x with degree in [lo, hi], as
    (root, degree) pairs.

    F lowers the degree by 1 (tau^{-1} sends I_v[d] to P_v[d + 1]) or by 2,
    so walking F down and F^{-1} up from x can stop at the first member
    past the range.
    """
    out = []
    step = x.rs.f_table
    root, degree = x.root, x.degree
    while degree >= lo:
        if degree <= hi:
            out.append((root, degree))
        root, move = step[root]
        degree += move
    step = x.rs.f_inv_table
    root, move = step[x.root]
    degree = x.degree + move
    while degree <= hi:
        if degree >= lo:
            out.append((root, degree))
        root, move = step[root]
        degree += move
    return out


def make_periodic(seeds: DCollection) -> PeriodicConfig:
    """Wrap seeds, rejecting two seeds in one F-orbit."""
    objs = seeds.objects
    if len(objs) > 1:
        rs = seeds.rs
        _require_categorical(rs)
        lo, hi = objs[0].degree, objs[-1].degree
        for i, a in enumerate(objs):
            orbit = set(_orbit(a, lo, hi))
            for b in objs[i + 1:]:
                if (b.root, b.degree) in orbit:
                    raise ValueError(f"seeds {a!r} and {b!r} lie in one F-orbit")
    return PeriodicConfig(seeds)


def is_combinatorial_configuration(p: PeriodicConfig, probe_window: WindowSpec) -> bool:
    """Exact check of the two configuration axioms on the F-orbit family:
    orthogonality between distinct orbit members, and covering of every
    indecomposable in the probe window by a nonzero morphism.

    Hom between stalks is nonzero only at degree gap 0 or 1, so only the
    orbit members within one degree of a seed, or of a window object, are
    walked.  In rs.hom_masks, row0[r] and row1[r] mask the roots s with
    Hom(M_r, M_s) and Hom(M_r, M_s[1]) nonzero, col0[r] and col1[r] those
    with Hom(M_s, M_r) and Hom(M_s, M_r[1]) nonzero:

    - orthogonality: the seeds with a nonzero Hom to a member M_r[e] are
      col0[r] over the seed roots in degree e and col1[r] over those in
      degree e - 1, less the member itself when it is a seed;
    - covering: the roots reached in degree e are the union of row0 over
      the members in degree e and row1 over those in degree e - 1.
    """
    seeds = p.seeds.objects
    if not seeds:
        raise ValueError("empty seed set")
    rs = p.seeds.rs
    _require_categorical(rs)
    row0, row1, col0, col1 = rs.hom_masks
    seed_roots: dict[int, int] = {}
    for a in seeds:
        seed_roots[a.degree] = seed_roots.get(a.degree, 0) | 1 << a.root
    lo, hi = seeds[0].degree, seeds[-1].degree
    for b in seeds:
        for r, e in _orbit(b, lo, hi + 1):
            same = seed_roots.get(e, 0)
            if e == b.degree:       # F moves the degree: this member is b
                same &= ~(1 << r)
            if col0[r] & same or col1[r] & seed_roots.get(e - 1, 0):
                return False
    w = probe_window
    # The window reaches down to w.lo - 1 (plus_injectives), and a member
    # reaches M_s[e] from degree e or e - 1.
    base = w.lo - 2
    reached = [0] * (w.hi - base + 2)
    for a in seeds:
        for r, e in _orbit(a, base, w.hi):
            reached[e - base] |= row0[r]
            reached[e - base + 1] |= row1[r]
    return all(not need & ~reached[e - base] for e, need in _window_masks(rs, w))


_RIEDTMANN_PROBE = WindowSpec(-1, 2)


def config_to_riedtmann(col: DCollection) -> PeriodicConfig:
    """From a 1-configuration in the minus window (no degree-0 projective
    summands) to the periodic configuration its F-orbit generates."""
    if not is_m_config(col, 1):
        raise ValueError("input is not a 1-configuration")
    offenders = [x for x in col.objects if x.degree == 0 and is_projective(x)]
    if offenders:
        raise ValueError(
            f"summand {offenders[0]!r} is a degree-0 projective; the minus "
            "window excludes the summands of H"
        )
    p = make_periodic(col)
    if not is_combinatorial_configuration(p, _RIEDTMANN_PROBE):
        raise MutationError(
            "F-orbit of a minus-window 1-configuration must be a combinatorial configuration"
        )
    return p


def riedtmann_to_config(p: PeriodicConfig) -> DCollection:
    """Collect the F-orbit representatives inside the minus window for m = 1
    (degrees 0 and 1, no degree-0 projectives); they form a
    Hom<=0-configuration, inverse to config_to_riedtmann."""
    if not is_combinatorial_configuration(p, _RIEDTMANN_PROBE):
        raise ValueError("not a combinatorial configuration")
    result = _riedtmann_to_config(p)
    if not is_hom_leq0_config(result):
        raise MutationError(
            "minus-window part of a periodic configuration must be a configuration"
        )
    return result


def _riedtmann_to_config(p: PeriodicConfig) -> DCollection:
    """riedtmann_to_config without its checks: the F-orbit members in
    degree 1, and in degree 0 less the projectives."""
    rs = p.seeds.rs
    return collection(DObj(rs, r, e) for seed in p.seeds.objects
                      for r, e in _orbit(seed, 0, 1)
                      if e == 1 or not rs.is_projective_root(r))


# ---------------------------------------------------------------------------
# Torsion classes on degree windows.
# ---------------------------------------------------------------------------

def torsion_window(col: DCollection, w: WindowSpec) -> frozenset[DObj]:
    """The part of A(col) inside the window: objects receiving no positive
    extensions from any summand."""
    return frozenset(z for z in window_objects(col.rs, w)
                     if all(forbidden_ext(s, z, "silting") is None
                            for s in col.objects))


# The degrees trimmed from each side of the window by ext_projectives.
_MARGIN = 2


def ext_projectives(a_window: frozenset[DObj], w: WindowSpec) -> frozenset[DObj]:
    """The Ext-projectives of a window torsion class, restricted to the
    window interior (_MARGIN degrees trimmed from each side) so boundary
    truncation cannot create spurious members."""
    lo, hi = w.lo + _MARGIN, w.hi - _MARGIN
    if lo > hi:
        raise ValueError(f"window {w} is too small for a margin of {_MARGIN}")

    interior = [x for x in a_window if lo <= x.degree <= hi]
    return frozenset(x for x in interior
                     if all(forbidden_ext(x, z, "silting") is None
                            for z in a_window))
