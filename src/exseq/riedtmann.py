"""Periodic combinatorial configurations and torsion classes.

A combinatorial configuration is a Hom-orthogonal family of indecomposables
that meets every object by a nonzero morphism; periodic means stable under
the autoequivalence F = [-2]tau^{-1}.  Periodicity makes every check finite:
F moves the degree down by 1 or 2 and stalk Homs reach one degree, so only
the orbit members near a seed or a probe window can interact.

The torsion class of a collection M is A(M) = {X : Ext^i(M, X) = 0, i >= 1},
here always intersected with an explicit degree window.
"""
from __future__ import annotations

from dataclasses import dataclass

from .derived import (
    DObj, WindowSpec, f_translate, f_translate_inv, forbidden_ext, hom_dim,
    is_projective, window_objects,
)
from .sequences import ExcSeq, MutationError, MutationSign, mutate
from .silting import DCollection, collection, is_hom_leq0_config, is_m_config


@dataclass(frozen=True)
class PeriodicConfig:
    """An F-stable family, stored as one fundamental domain of seeds."""

    seeds: DCollection


def _orbit(x: DObj, lo: int, hi: int) -> list[DObj]:
    """The members of the F-orbit of x with degree in [lo, hi].

    F lowers the degree by 1 (tau^{-1} sends I_v[d] to P_v[d + 1]) or by 2,
    so walking F down and F^{-1} up from x can stop at the first member
    past the range.
    """
    out = []
    y = x
    while y.degree >= lo:
        if y.degree <= hi:
            out.append(y)
        y = f_translate(y)
    y = f_translate_inv(x)
    while y.degree <= hi:
        if y.degree >= lo:
            out.append(y)
        y = f_translate_inv(y)
    return out


def make_periodic(seeds: DCollection) -> PeriodicConfig:
    """Wrap seeds, rejecting two seeds in one F-orbit."""
    objs = seeds.objects
    for i, a in enumerate(objs):
        for b in objs[i + 1:]:
            if b in _orbit(a, b.degree, b.degree):
                raise ValueError(f"seeds {a!r} and {b!r} lie in one F-orbit")
    return PeriodicConfig(seeds)


def is_combinatorial_configuration(p: PeriodicConfig, probe_window: WindowSpec) -> bool:
    """Exact check of the two configuration axioms on the F-orbit family:
    orthogonality between distinct orbit members, and covering of every
    indecomposable in the probe window by a nonzero morphism.

    Hom between stalks is nonzero only at degree gap 0 or 1, so only the
    orbit members within one degree of a seed, or of a window object, are
    walked.
    """
    seeds = p.seeds.objects
    if not seeds:
        raise ValueError("empty seed set")
    rs = p.seeds.rs
    lo, hi = seeds[0].degree, seeds[-1].degree
    for b in seeds:
        for y in _orbit(b, lo, hi + 1):
            if any(hom_dim(a, y) for a in seeds if not (a == b == y)):
                return False
    w = probe_window
    # window_objects also lists degree w.lo - 1 (plus_injectives), and a
    # member reaches z from degree z.degree or z.degree - 1.
    by_degree: dict[int, list[DObj]] = {}
    for a in seeds:
        for y in _orbit(a, w.lo - 2, w.hi):
            by_degree.setdefault(y.degree, []).append(y)
    for z in window_objects(rs, w):
        near = by_degree.get(z.degree, []) + by_degree.get(z.degree - 1, [])
        if not any(hom_dim(y, z) for y in near):
            return False
    return True


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
    """Collect the F-orbit representatives inside the minus window for m = 1;
    they form a Hom<=0-configuration, inverse to config_to_riedtmann."""
    if not is_combinatorial_configuration(p, _RIEDTMANN_PROBE):
        raise ValueError("not a combinatorial configuration")
    window = WindowSpec(0, 1, minus_projectives=True)
    result = collection(x for seed in p.seeds.objects
                        for x in _orbit(seed, window.lo, window.hi)
                        if window.contains(x))
    if not is_hom_leq0_config(result):
        raise MutationError(
            "minus-window part of a periodic configuration must be a configuration"
        )
    return result


# ---------------------------------------------------------------------------
# Torsion classes on degree windows.
# ---------------------------------------------------------------------------

def torsion_window(col: DCollection, w: WindowSpec) -> frozenset[DObj]:
    """The part of A(col) inside the window: objects receiving no positive
    extensions from any summand."""
    return frozenset(z for z in window_objects(col.rs, w)
                     if all(forbidden_ext(s, z, "silting") is None
                            for s in col.objects))


def check_negative_mutation_invariance(seq: ExcSeq, i: int, w: WindowSpec) -> bool:
    """Prop-style invariance check: a negative (or orthogonal) right mutation
    at position i leaves the window torsion class of the summand set unchanged."""
    mutated, sign = mutate(seq, i, "right")
    if sign is MutationSign.NONNEGATIVE:
        raise ValueError("mutation at this position is not negative")
    return torsion_window(collection(seq), w) == torsion_window(collection(mutated), w)


def ext_projectives(a_window: frozenset[DObj], w: WindowSpec, margin: int = 2
                    ) -> frozenset[DObj]:
    """The Ext-projectives of a window torsion class, restricted to the
    window interior (margin degrees trimmed from each side) so boundary
    truncation cannot create spurious members."""
    if w.lo + margin > w.hi - margin:
        raise ValueError(f"window {w} is too small for a margin of {margin}")

    interior = [x for x in a_window if w.lo + margin <= x.degree <= w.hi - margin]
    return frozenset(x for x in interior
                     if all(forbidden_ext(x, z, "silting") is None
                            for z in a_window))
