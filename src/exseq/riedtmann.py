"""Periodic combinatorial configurations and torsion classes.

A combinatorial configuration is a Hom-orthogonal family of indecomposables
that meets every object by a nonzero morphism; periodic means stable under
the autoequivalence F = [-2]tau^{-1}.  Periodicity makes every check finite:
degree reach of stalk Homs bounds the translate exponents that can interact
with a probe window.

The torsion class of a collection M is A(M) = {X : Ext^i(M, X) = 0, i >= 1},
here always intersected with an explicit degree window.
"""
from __future__ import annotations

from dataclasses import dataclass

from .derived import (
    DObj, WindowSpec, f_power, hom_dim, is_projective, nonzero_exts, window_objects,
)
from .sequences import ExcSeq, MutationError, MutationSign, mutate
from .silting import DCollection, collection, is_hom_leq0_config, is_m_config


@dataclass(frozen=True)
class PeriodicConfig:
    """An F-stable family, stored as one fundamental domain of seeds."""

    seeds: DCollection


def _degree_span(objs) -> int:
    degrees = [x.degree for x in objs]
    return max(degrees) - min(degrees)


def _same_f_orbit(a: DObj, b: DObj, reach: int) -> bool:
    return any(f_power(a, k) == b for k in range(-reach, reach + 1))


def make_periodic(seeds: DCollection) -> PeriodicConfig:
    """Wrap seeds, rejecting two seeds in one F-orbit."""
    objs = seeds.sorted()
    reach = _degree_span(objs) + 2
    for i, a in enumerate(objs):
        for b in objs[i + 1:]:
            if _same_f_orbit(a, b, reach):
                raise ValueError(f"seeds {a!r} and {b!r} lie in one F-orbit")
    return PeriodicConfig(seeds)


def is_combinatorial_configuration(p: PeriodicConfig, probe_window: WindowSpec) -> bool:
    """Exact check of the two configuration axioms on the F-orbit family:
    orthogonality between distinct orbit members, and covering of every
    indecomposable in the probe window by a nonzero morphism."""
    seeds = p.seeds.sorted()
    if not seeds:
        raise ValueError("empty seed set")
    rs = p.seeds.rs
    span = _degree_span(seeds)
    for a in seeds:
        for b in seeds:
            for k in range(-(span + 2), span + 3):
                if a == b and k == 0:
                    continue
                if hom_dim(a, f_power(b, k)) != 0:
                    return False
    for z in window_objects(rs, probe_window):
        gap = max(abs(a.degree - z.degree) for a in seeds) + 2
        covered = any(
            hom_dim(f_power(a, k), z) != 0
            for a in seeds
            for k in range(-gap, gap + 1)
        )
        if not covered:
            return False
    return True


_RIEDTMANN_PROBE = WindowSpec(-1, 2)


def config_to_riedtmann(col: DCollection) -> PeriodicConfig:
    """From a 1-configuration in the minus window (no degree-0 projective
    summands) to the periodic configuration its F-orbit generates."""
    if not is_m_config(col, 1):
        raise ValueError("input is not a 1-configuration")
    offenders = [x for x in col.summands if x.degree == 0 and is_projective(x)]
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
# Torsion classes on degree windows.
# ---------------------------------------------------------------------------

def _has_positive_ext(x: DObj, z: DObj) -> bool:
    # Ext^i(x, z) can be nonzero only for i <= x.degree - z.degree + 1, and
    # nonzero_exts lists i ascending.
    if x.degree < z.degree:
        return False
    exts = nonzero_exts(x, z)
    return bool(exts) and exts[-1][0] >= 1


def torsion_window(col: DCollection, w: WindowSpec) -> frozenset[DObj]:
    """The part of A(col) inside the window: objects receiving no positive
    extensions from any summand."""
    summands = col.sorted()
    return frozenset(z for z in window_objects(col.rs, w)
                     if not any(_has_positive_ext(s, z) for s in summands))


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
                     if not any(_has_positive_ext(x, z) for z in a_window))
