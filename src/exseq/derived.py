"""Indecomposable objects of the bounded derived category.

Every indecomposable of D^b(H) for a Dynkin path algebra H is a stalk
complex M[d], so an object is encoded as (positive-root index, degree).
Hom spaces are read from the exact table RootSystemData.hom_table, which the
root system fills once by a recurrence along the tau-orbits.  No linear
algebra is involved; the matrix-representation oracle lives in the test
suite only.

Which Ext^i between two stalks is nonzero is decided here, by nonzero_exts;
the silting, mutation, Weyl and torsion layers all ask it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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


def _same_system(x: DObj, y: DObj) -> RootSystemData:
    if x.rs is not y.rs:
        raise ValueError("objects over different root systems")
    return x.rs


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
    try:
        dim, degree = tuple(int(c) for c in data["dim"]), int(data["deg"])
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
    rs = x.rs
    _require_categorical(rs)
    if rs.is_projective_root(x.root):
        vertex = rs._proj_vertex[x.root]
        return DObj(rs, rs.root_of(rs.inj_dims[vertex]), x.degree - 1)
    return DObj(rs, rs._tau_image[x.root], x.degree)


def tau_inv(x: DObj) -> DObj:
    rs = x.rs
    _require_categorical(rs)
    if rs.is_injective_root(x.root):
        vertex = rs._inj_vertex[x.root]
        return DObj(rs, rs.root_of(rs.proj_dims[vertex]), x.degree + 1)
    return DObj(rs, rs._tau_inv_image[x.root], x.degree)


def nu(x: DObj) -> DObj:
    return shift(tau(x), 1)


def nu_inv(x: DObj) -> DObj:
    return shift(tau_inv(x), -1)


def f_translate(x: DObj) -> DObj:
    """The autoequivalence used by periodic configurations: tau^{-1} then [-2]."""
    return shift(tau_inv(x), -2)


def f_translate_inv(x: DObj) -> DObj:
    return shift(tau(x), 2)


def f_power(x: DObj, k: int) -> DObj:
    step = f_translate if k >= 0 else f_translate_inv
    for _ in range(abs(k)):
        x = step(x)
    return x


_TRANSLATIONS = {
    "tau": tau,
    "tau-inv": tau_inv,
    "nu": nu,
    "nu-inv": nu_inv,
    "F": f_translate,
    "F-inv": f_translate_inv,
}


def translate(x: DObj, op: str, k: int = 1) -> DObj:
    """Name-dispatched translation; op is one of shift/tau/tau-inv/nu/nu-inv/F/F-inv."""
    if op == "shift":
        return shift(x, k)
    try:
        return _TRANSLATIONS[op](x)
    except KeyError:
        raise ValueError(f"unknown translation {op!r}") from None


# ---------------------------------------------------------------------------
# Hom and Ext dimensions.
# ---------------------------------------------------------------------------

def hom_dim(x: DObj, y: DObj) -> int:
    """Exact dimension of Hom_D(x, y)."""
    rs = _same_system(x, y)
    _require_categorical(rs)
    gap = y.degree - x.degree
    return rs.hom_table[gap][x.root][y.root] if gap in (0, 1) else 0


def ext_dim(x: DObj, y: DObj, i: int) -> int:
    """Exact dimension of Ext^i(x, y) = Hom(x, y[i])."""
    return hom_dim(x, shift(y, i))


def nonzero_exts(x: DObj, y: DObj) -> tuple[tuple[int, int], ...]:
    """The pairs (i, dim Ext^i(x, y)) with nonzero dimension, i ascending.

    Stalk objects interact only at i = x.degree - y.degree and at i + 1, so
    there are at most two pairs.
    """
    rs = _same_system(x, y)
    _require_categorical(rs)
    base = x.degree - y.degree
    out = []
    for i in (base, base + 1):
        dim = rs.hom_table[i - base][x.root][y.root]
        if dim:
            out.append((i, dim))
    return tuple(out)


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
        if self.lo <= x.degree <= self.hi:
            if self.minus_projectives and x.degree == self.lo and is_projective(x):
                return False
            return True
        return self.plus_injectives and x.degree == self.lo - 1 and is_injective(x)

    def to_dict(self) -> dict:
        return {"lo": self.lo, "hi": self.hi,
                "plus_injectives": self.plus_injectives,
                "minus_projectives": self.minus_projectives}

    @staticmethod
    def from_dict(data: dict) -> "WindowSpec":
        return WindowSpec(int(data["lo"]), int(data["hi"]),
                          bool(data.get("plus_injectives", False)),
                          bool(data.get("minus_projectives", False)))


def window_objects(rs: RootSystemData, w: WindowSpec) -> list[DObj]:
    """All indecomposables inside the window, in (degree, root) order."""
    _require_categorical(rs)
    out = []
    for degree in range(w.lo - 1, w.hi + 1):
        for root in range(len(rs.positive_roots)):
            x = DObj(rs, root, degree)
            if w.contains(x):
                out.append(x)
    return out
