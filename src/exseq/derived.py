"""Indecomposable objects of the bounded derived category.

Every indecomposable of D^b(H) for a Dynkin path algebra H is a stalk
complex M[d], so an object is encoded as (positive-root index, degree).
Hom spaces are read from the exact table RootSystemData.hom_table, which the
root system fills once as the sign split of its Euler pairing
RootSystemData.pairing.  No linear algebra is involved; the
matrix-representation oracle lives in the test suite only.

Which Ext^i between two stalks is nonzero is decided here, by nonzero_exts;
the silting, mutation, Weyl and torsion layers all ask it.  The two
compatibility rules live here too, in RULES: the Ext indices a silting
object and a Hom<=0-configuration forbid between distinct summands.
forbidden_ext asks one of them about one ordered pair.  Window membership
is decided here as well, once, by _window_masks: one root mask per degree.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import inf

from .roots import DimVector, QuiverError, RootSystemData, vec_neg


@dataclass(frozen=True, repr=False)
class DObj:
    """The stalk complex M[degree], M the indecomposable with root `root`."""

    rs: RootSystemData = field(repr=False)
    root: int
    degree: int

    def dim(self) -> DimVector:
        return self.rs.positive_roots[self.root]

    def __repr__(self):
        return f"DObj({list(self.dim())}[{self.degree}])"


def _require_categorical(rs: RootSystemData) -> None:
    if not rs.is_categorical():
        raise QuiverError(
            f"family {rs.family} is Weyl-only; derived-category operations "
            "require a simply-laced (A, D, E) quiver"
        )


def _hom_table(x: DObj, y: DObj):
    if x.rs is not y.rs:
        raise ValueError("objects over different root systems")
    _require_categorical(x.rs)
    return x.rs.hom_table


# ---------------------------------------------------------------------------
# Constructors and JSON encoding.
# ---------------------------------------------------------------------------

def obj(rs: RootSystemData, dim: DimVector, degree: int = 0) -> DObj:
    _require_categorical(rs)
    return DObj(rs, rs.root_of(dim), degree)


def simple(rs: RootSystemData, vertex: int, degree: int = 0) -> DObj:
    """The simple S_vertex (vertex is 1-based) placed in the given degree."""
    _require_categorical(rs)
    if not 1 <= vertex <= rs.n:
        raise ValueError(f"vertex {vertex} out of range")
    return DObj(rs, vertex - 1, degree)


def proj(rs: RootSystemData, vertex: int, degree: int = 0) -> DObj:
    _require_categorical(rs)
    return obj(rs, rs.proj_dims[vertex - 1], degree)


def inj(rs: RootSystemData, vertex: int, degree: int = 0) -> DObj:
    _require_categorical(rs)
    return obj(rs, rs.inj_dims[vertex - 1], degree)


def obj_to_dict(x: DObj) -> dict:
    return {"dim": list(x.dim()), "deg": x.degree}


def obj_from_dict(rs: RootSystemData, data: dict) -> DObj:
    """Read {"dim": [...], "deg": d}; every entry must be a JSON integer."""
    try:
        dim, degree = tuple(data["dim"]), data["deg"]
        if not all(type(c) is int for c in (*dim, degree)):   # no bool or float
            raise TypeError
    except (KeyError, TypeError):
        raise ValueError(f"object record {data!r} is not of the form "
                         '{"dim": [...], "deg": d}') from None
    return obj(rs, dim, degree)


def is_projective(x: DObj) -> bool:
    """Whether the underlying module is projective (degree plays no role)."""
    return x.rs.is_projective_root(x.root)


def is_injective(x: DObj) -> bool:
    return x.rs.is_injective_root(x.root)


# ---------------------------------------------------------------------------
# Translations: shift, tau, nu = tau[1], F = [-2]tau^{-1}.
# ---------------------------------------------------------------------------

def shift(x: DObj, k: int = 1) -> DObj:
    return DObj(x.rs, x.root, x.degree + k)


def tau(x: DObj) -> DObj:
    """tau = F^{-1}[-2], read off rs.f_inv_table."""
    _require_categorical(x.rs)
    root, move = x.rs.f_inv_table[x.root]
    return DObj(x.rs, root, x.degree + move - 2)


def tau_inv(x: DObj) -> DObj:
    """tau^{-1} = F[2], read off rs.f_table."""
    _require_categorical(x.rs)
    root, move = x.rs.f_table[x.root]
    return DObj(x.rs, root, x.degree + move + 2)


def nu(x: DObj) -> DObj:
    return shift(tau(x), 1)


def nu_inv(x: DObj) -> DObj:
    return shift(tau_inv(x), -1)


def f_translate(x: DObj) -> DObj:
    """The autoequivalence used by periodic configurations: tau^{-1} then [-2]."""
    _require_categorical(x.rs)
    root, move = x.rs.f_table[x.root]
    return DObj(x.rs, root, x.degree + move)


def f_translate_inv(x: DObj) -> DObj:
    _require_categorical(x.rs)
    root, move = x.rs.f_inv_table[x.root]
    return DObj(x.rs, root, x.degree + move)


def f_power(x: DObj, k: int) -> DObj:
    step = f_translate if k >= 0 else f_translate_inv
    for _ in range(abs(k)):
        x = step(x)
    return x


# ---------------------------------------------------------------------------
# Hom and Ext dimensions.
# ---------------------------------------------------------------------------

def hom_dim(x: DObj, y: DObj) -> int:
    """Exact dimension of Hom_D(x, y)."""
    table = _hom_table(x, y)
    gap = y.degree - x.degree
    return table[gap][x.root][y.root] if gap in (0, 1) else 0


def ext_dim(x: DObj, y: DObj, i: int) -> int:
    """Exact dimension of Ext^i(x, y) = Hom(x, y[i])."""
    return hom_dim(x, shift(y, i))


def nonzero_exts(x: DObj, y: DObj) -> tuple[tuple[int, int], ...]:
    """The pairs (i, dim Ext^i(x, y)) with nonzero dimension, i ascending.

    Stalk objects interact only at i = x.degree - y.degree and at i + 1, so
    there are at most two pairs.
    """
    table = _hom_table(x, y)
    base = x.degree - y.degree
    out = []
    for i in (base, base + 1):
        dim = table[i - base][x.root][y.root]
        if dim:
            out.append((i, dim))
    return tuple(out)


# The inclusive range of the Ext indices each rule forbids between distinct
# summands: i >= 1 in a silting object, i <= 0 (Hom too) in a configuration.
RULES = {"silting": (1, inf), "config": (-inf, 0)}


def forbidden_ext(x: DObj, y: DObj, rule: str) -> int | None:
    """The least i in the rule's range with Ext^i(x, y) nonzero, or None.
    Only i = x.degree - y.degree and i + 1 can qualify (see nonzero_exts),
    so a range missing both answers at once."""
    lo, hi = RULES[rule]
    base = x.degree - y.degree
    if base + 1 < lo or base > hi:
        return None
    h0, h1 = _hom_table(x, y)
    if lo <= base and h0[x.root][y.root]:
        return base
    if base < hi and h1[x.root][y.root]:
        return base + 1
    return None


# ---------------------------------------------------------------------------
# Classes in K_0(D) and the inverse lookup.
# ---------------------------------------------------------------------------

def class_of(x: DObj) -> DimVector:
    """The class of M[a] in K_0, which is (-1)^a dim M."""
    d = x.dim()
    return d if x.degree % 2 == 0 else vec_neg(d)


def object_of_class(rs: RootSystemData, coords: DimVector,
                    degree_hints: tuple[int, int]) -> DObj:
    """Invert class_of given two candidate degrees.

    The sign of coords (which of +-coords is a positive root) fixes the
    degree parity; exactly one hint of that parity must be supplied.
    """
    _require_categorical(rs)
    coords = tuple(coords)
    if coords in rs.root_index:
        parity = 0
        root = rs.root_index[coords]
    elif vec_neg(coords) in rs.root_index:
        parity = 1
        root = rs.root_index[vec_neg(coords)]
    else:
        raise ValueError(f"{coords} is not plus or minus a positive root")
    matching = [d for d in degree_hints if d % 2 == parity]
    if not matching:
        raise ValueError(f"no degree hint in {degree_hints} matches the sign of {coords}")
    if len(matching) > 1:
        raise ValueError(f"degree hints {degree_hints} are ambiguous for {coords}")
    return DObj(rs, root, matching[0])


# ---------------------------------------------------------------------------
# Degree windows.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowSpec:
    """An inclusive degree interval, optionally admitting the injectives one
    degree below (plus_injectives) or excluding the projectives at the bottom
    degree (minus_projectives)."""

    lo: int
    hi: int
    plus_injectives: bool = False
    minus_projectives: bool = False

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("window lo must not exceed hi")

    def contains(self, x: DObj) -> bool:
        rows = _window_masks(x.rs, self, x.degree)
        return bool(rows) and bool(rows[0][1] >> x.root & 1)

    def to_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi,
                "plus_injectives": self.plus_injectives,
                "minus_projectives": self.minus_projectives}


def _window_masks(rs: RootSystemData, w: WindowSpec,
                  degree: int | None = None) -> list[tuple[int, int]]:
    """Per degree of the window, lowest first, the mask of the roots whose
    stalk in that degree the window contains: every root in lo..hi, less
    the projectives at lo under minus_projectives, and the injectives at
    lo - 1 under plus_injectives.  Given a degree, only that degree's row,
    if the window has one.  The one decision of window membership."""
    bottom = w.lo - 1 if w.plus_injectives else w.lo
    if degree is None:
        degrees = range(bottom, w.hi + 1)
    elif bottom <= degree <= w.hi:
        degrees = (degree,)
    else:
        return []
    full = (1 << len(rs.positive_roots)) - 1
    rows = []
    for d in degrees:
        if d < w.lo:
            mask = sum(1 << r for r in rs._inj_vertex)
        elif d == w.lo and w.minus_projectives:
            mask = full & ~sum(1 << r for r in rs._proj_vertex)
        else:
            mask = full
        rows.append((d, mask))
    return rows


def window_objects(rs: RootSystemData, w: WindowSpec) -> list[DObj]:
    """All indecomposables inside the window, in (degree, root) order."""
    _require_categorical(rs)
    roots = range(len(rs.positive_roots))
    return [DObj(rs, root, degree) for degree, mask in _window_masks(rs, w)
            for root in roots if mask >> root & 1]
