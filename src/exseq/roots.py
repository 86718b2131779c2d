"""Root systems of Dynkin quivers.

Positive roots, the Euler and symmetrized bilinear forms, reflections, the
Coxeter transformation, exponents and Fuss-Catalan numbers.  Everything is
exact integer arithmetic; no floating point enters any computation.

The categorical layers (derived objects, mutation, silting) require a
simply-laced quiver (families A, D, E) whose vertices are numbered 1..n so
that every arrow points from a smaller to a larger vertex.  Families B, C,
F, G carry Cartan/reflection data only and are accepted by the Weyl-group
layer alone.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from operator import mul

DimVector = tuple[int, ...]
IntMatrix = tuple[tuple[int, ...], ...]

CATEGORICAL_FAMILIES = frozenset("ADE")
WEYL_ONLY_FAMILIES = frozenset("BCFG")


class QuiverError(ValueError):
    """Malformed quiver or unsupported family/rank combination."""


# ---------------------------------------------------------------------------
# Small exact linear algebra over the integers.
# ---------------------------------------------------------------------------

def vec_sub(u: DimVector, v: DimVector) -> DimVector:
    return tuple(a - b for a, b in zip(u, v))


def vec_neg(u: DimVector) -> DimVector:
    return tuple(-a for a in u)


def vec_scale(c: int, u: DimVector) -> DimVector:
    return tuple(c * a for a in u)


def mat_identity(n: int) -> IntMatrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_vec(m: IntMatrix, v: DimVector) -> DimVector:
    """Apply m to a column vector."""
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    n, k = len(a), len(b)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(len(b[0])))
        for i in range(n)
    )


def mat_transpose(m: IntMatrix) -> IntMatrix:
    return tuple(zip(*m))


def mat_neg(m: IntMatrix) -> IntMatrix:
    return tuple(tuple(-x for x in row) for row in m)


_NONZERO = bytes([48] + [49] * 255)    # byte 0 -> "0", any other -> "1"


def _row_masks(rows) -> tuple[int, ...]:
    """Per row of a Hom array, the bitmask of the roots with a nonzero entry.
    Entries fit a byte: no Hom in Dynkin type exceeds 6 in dimension."""
    return tuple(int(bytes(row).translate(_NONZERO)[::-1], 2) for row in rows)


# ---------------------------------------------------------------------------
# Quivers.
# ---------------------------------------------------------------------------

_STANDARD_RANKS = {"A": 1, "B": 2, "C": 2, "D": 4, "F": 4, "G": 2}


@dataclass(frozen=True)
class QuiverDescriptor:
    """A Dynkin quiver: family letter, rank and topologically numbered arrows.

    Vertices are 1..rank and every arrow (i, j) must have i < j, which rules
    out oriented cycles and makes (S_1, ..., S_n) an exceptional sequence.
    Families B, C, F, G take no arrows; only their Cartan data is used.
    """

    family: str
    rank: int
    arrows: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "arrows", tuple(tuple(a) for a in self.arrows))
        _validate_quiver(self)

    @staticmethod
    def standard(family: str, rank: int) -> "QuiverDescriptor":
        """The standard orientation: a linearly oriented path, with branch
        arrows out of the fork vertex for types D and E."""
        if family in WEYL_ONLY_FAMILIES:
            return QuiverDescriptor(family, rank)
        if family == "A":
            arrows = [(i, i + 1) for i in range(1, rank)]
        elif family == "D":
            arrows = [(i, i + 1) for i in range(1, rank - 1)] + [(rank - 2, rank)]
        elif family == "E":
            arrows = [(i, i + 1) for i in range(1, rank)] + [(3, rank)]
            arrows.remove((rank - 1, rank))
        else:
            raise QuiverError(f"unknown family {family!r}")
        return QuiverDescriptor(family, rank, tuple(arrows))


def _tree_shape(n: int, edges: list[tuple[int, int]]) -> tuple[str, int] | None:
    """Classify an undirected simple graph as a Dynkin diagram, or None."""
    if len(edges) != n - 1:
        return None
    adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for i, j in edges:
        if i == j or j in adj[i]:
            return None
        adj[i].add(j)
        adj[j].add(i)
    seen = {1}
    stack = [1]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != n:
        return None
    branch = [v for v in adj if len(adj[v]) == 3]
    if any(len(adj[v]) > 3 for v in adj) or len(branch) > 1:
        return None
    if not branch:
        return ("A", n)
    comps = sorted(_component_sizes(adj, branch[0]))
    if comps[0] == 1 and comps[1] == 1:
        return ("D", n)
    if comps[:2] == [1, 2] and comps[2] in (2, 3, 4):
        return ("E", n)
    return None


def _component_sizes(adj: dict[int, set[int]], removed: int) -> list[int]:
    sizes = []
    seen = {removed}
    for start in adj[removed]:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        seen.add(start)
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen and w != removed:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        sizes.append(len(comp))
    return sizes


def _validate_quiver(q: QuiverDescriptor) -> None:
    fam, n = q.family, q.rank
    if fam not in CATEGORICAL_FAMILIES | WEYL_ONLY_FAMILIES:
        raise QuiverError(f"unknown family {fam!r}; expected one of A,B,C,D,E,F,G")
    if n < 1:
        raise QuiverError("rank must be positive")
    if fam == "E":
        if n not in (6, 7, 8):
            raise QuiverError("family E exists only in ranks 6, 7, 8")
    elif fam in _STANDARD_RANKS and n < _STANDARD_RANKS[fam]:
        raise QuiverError(f"family {fam} requires rank >= {_STANDARD_RANKS[fam]}")
    if fam in ("F", "G") and n != _STANDARD_RANKS[fam]:
        raise QuiverError(f"family {fam} exists only in rank {_STANDARD_RANKS[fam]}")
    if fam in WEYL_ONLY_FAMILIES:
        if q.arrows:
            raise QuiverError(
                f"family {fam} is Weyl-only and takes no arrows; "
                "categorical operations require a simply-laced quiver"
            )
        return
    for i, j in q.arrows:
        if not (1 <= i <= n and 1 <= j <= n):
            raise QuiverError(f"arrow ({i},{j}) leaves the vertex range 1..{n}")
        if i >= j:
            raise QuiverError(
                f"arrow ({i},{j}) violates the topological numbering i < j"
            )
    shape = _tree_shape(n, list(q.arrows))
    if shape != (fam, n):
        raise QuiverError(
            f"underlying graph of the arrows is not the {fam}{n} Dynkin diagram"
        )


# ---------------------------------------------------------------------------
# Cartan data for the non-simply-laced families.
# ---------------------------------------------------------------------------

def _weyl_only_cartan(family: str, n: int) -> tuple[IntMatrix, tuple[int, ...]]:
    """Cartan matrix C (convention C[i][j] = 2(a_i,a_j)/(a_i,a_i)) and the
    symmetrizers d making diag(d).C symmetric."""
    c = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        c[i][i + 1] = c[i + 1][i] = -1
    if family == "B":  # short last root
        c[n - 1][n - 2] = -2
        d = (2,) * (n - 1) + (1,)
    elif family == "C":  # long last root
        c[n - 2][n - 1] = -2
        d = (1,) * (n - 1) + (2,)
    elif family == "F":
        c[2][1] = -2
        d = (2, 2, 1, 1)
    elif family == "G":
        c[0][1] = -3
        d = (1, 3)
    else:  # pragma: no cover - guarded by the quiver validator
        raise QuiverError(f"no Cartan data for family {family}")
    return tuple(tuple(row) for row in c), d


# ---------------------------------------------------------------------------
# The assembled root system.
# ---------------------------------------------------------------------------

class RootSystemData:
    """Root-combinatorial data of a quiver.  Immutable after construction;
    instances may be shared freely across threads.

    For the A, D, E families construction also fills `hom_table`, by a
    recurrence along the tau-orbits of the projectives: entry
    hom_table[gap][rx][ry] is dim Hom(M_rx[0], M_ry[gap]) for gap 0 and 1,
    the only degree gaps at which two stalk complexes can interact.  Beside
    it sit `hom_masks`, the nonzero patterns of its rows and columns as
    bitmasks over the roots, and `f_table`/`f_inv_table`, the
    autoequivalence F = [-2]tau^{-1} and its inverse on (root, degree),
    the one table of tau as well (tau = F^{-1}[-2]).

    Positive roots are ordered with the simple roots first (in vertex order)
    and the rest by (height, coordinates); this order is the deterministic
    tie-break used by every enumeration built on top.
    """

    def __init__(self, quiver: QuiverDescriptor):
        self.quiver = quiver
        self.family = quiver.family
        self.n = quiver.rank
        n = self.n

        if self.family in CATEGORICAL_FAMILIES:
            cartan = [[2 * (i == j) for j in range(n)] for i in range(n)]
            for i, j in quiver.arrows:
                cartan[i - 1][j - 1] -= 1
                cartan[j - 1][i - 1] -= 1
            self.cartan_matrix: IntMatrix = tuple(tuple(r) for r in cartan)
            self.symmetrizers: tuple[int, ...] = (1,) * n
        else:
            self.cartan_matrix, self.symmetrizers = _weyl_only_cartan(self.family, n)

        self.sym_matrix: IntMatrix = tuple(
            tuple(self.symmetrizers[i] * self.cartan_matrix[i][j] for j in range(n))
            for i in range(n)
        )
        for i in range(n):
            if self.sym_matrix[i][i] != 2 * self.symmetrizers[i]:
                raise QuiverError("symmetrized form has a wrong diagonal")
            for j in range(n):
                if self.sym_matrix[i][j] != self.sym_matrix[j][i]:
                    raise QuiverError("Cartan data does not symmetrize")

        self.positive_roots: tuple[DimVector, ...] = self._close_roots()
        self.root_index: dict[DimVector, int] = {
            r: k for k, r in enumerate(self.positive_roots)
        }
        two_count = 2 * len(self.positive_roots)
        if two_count % n:
            raise QuiverError("positive-root count is not n*h/2 for any integer h")
        self.coxeter_number: int = two_count // n
        self.exponents: tuple[int, ...] = self._exponents()

        # Categorical (ADE) layer: Euler form, Coxeter transformation and the
        # projective/injective dimension vectors.
        self.euler_matrix: IntMatrix | None = None
        self.coxeter_matrix: IntMatrix | None = None
        self.coxeter_inverse: IntMatrix | None = None
        self.proj_dims: tuple[DimVector, ...] | None = None
        self.inj_dims: tuple[DimVector, ...] | None = None
        self._proj_vertex: dict[int, int] = {}
        self._inj_vertex: dict[int, int] = {}
        self.hom_table: tuple[IntMatrix, IntMatrix] | None = None
        self.hom_masks: tuple[tuple[int, ...], ...] | None = None
        self.f_table: tuple[tuple[int, int], ...] | None = None
        self.f_inv_table: tuple[tuple[int, int], ...] | None = None
        if self.family in CATEGORICAL_FAMILIES:
            self._build_categorical()

    # -- construction helpers ------------------------------------------------

    def _close_roots(self) -> tuple[DimVector, ...]:
        """The positive roots, closed from the simples under the simple
        reflections that raise height: every non-simple positive root is
        one such step above a lower one.  Each root keeps its pairing vector
        (sym_matrix times the root); s_i subtracts coeff times column i of
        sym_matrix from it, which is row i as the form is symmetric."""
        n = self.n
        sym = self.sym_matrix
        simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        pairings = {s: sym[i] for i, s in enumerate(simples)}
        frontier = list(simples)
        while frontier:
            v = frontier.pop()
            pairing = pairings[v]
            for i in range(n):
                coeff, rem = divmod(pairing[i], self.symmetrizers[i])
                if rem:
                    raise QuiverError("non-crystallographic reflection coefficient")
                if coeff < 0:
                    w = list(v)
                    w[i] -= coeff
                    wt = tuple(w)
                    if wt not in pairings:
                        pairings[wt] = tuple(p - coeff * c
                                             for p, c in zip(pairing, sym[i]))
                        frontier.append(wt)
        simple_set = set(simples)
        rest = sorted((r for r in pairings if r not in simple_set),
                      key=lambda r: (sum(r), r))
        return tuple(simples) + tuple(rest)

    def _exponents(self) -> tuple[int, ...]:
        heights = Counter(sum(r) for r in self.positive_roots)
        hmax = max(heights)
        layers = [heights.get(k, 0) for k in range(1, hmax + 1)]
        if any(layers[k] < layers[k + 1] for k in range(len(layers) - 1)):
            raise QuiverError("root height distribution is not a partition")
        exps = sorted(
            sum(1 for mk in layers if mk >= j) for j in range(1, layers[0] + 1)
        )
        h = self.coxeter_number
        if len(exps) != self.n or sum(exps) != len(self.positive_roots):
            raise QuiverError("exponent computation failed a sanity check")
        if any(exps[i] + exps[self.n - 1 - i] != h for i in range(self.n)):
            raise QuiverError("exponents are not symmetric about h/2")
        return tuple(exps)

    def _build_categorical(self) -> None:
        n = self.n
        mult = [[0] * n for _ in range(n)]
        for i, j in self.quiver.arrows:
            mult[i - 1][j - 1] += 1
        euler = tuple(
            tuple((i == j) - mult[i][j] for j in range(n)) for i in range(n)
        )
        # E = I - N with N strictly upper triangular, so E^-1 = sum N^k exactly.
        npow = mat_identity(n)
        einv = mat_identity(n)
        nmat = tuple(tuple(mult[i][j] for j in range(n)) for i in range(n))
        for _ in range(n - 1):
            npow = mat_mul(npow, nmat)
            einv = tuple(
                tuple(einv[i][j] + npow[i][j] for j in range(n)) for i in range(n)
            )
        phi = mat_neg(mat_mul(einv, mat_transpose(euler)))
        phi_inv = mat_neg(mat_mul(mat_transpose(einv), euler))
        if mat_mul(phi, phi_inv) != mat_identity(n):
            raise QuiverError("Coxeter matrix inversion failed")

        # E^-1[i][j] counts the paths i -> j: the rows of E^-1 are the dim P_i,
        # its columns the dim I_i.
        proj = einv
        inj = mat_transpose(einv)
        for i in range(n):
            if proj[i] not in self.root_index or inj[i] not in self.root_index:
                raise QuiverError("projective dimension vector is not a root")
            if mat_vec(phi, proj[i]) != vec_neg(inj[i]):
                raise QuiverError("Coxeter matrix does not send dim P_i to -dim I_i")

        self.euler_matrix = euler
        self.coxeter_matrix = phi
        self.coxeter_inverse = phi_inv
        self.proj_dims = proj
        self.inj_dims = inj
        self._proj_vertex = {self.root_index[proj[i]]: i for i in range(n)}
        self._inj_vertex = {self.root_index[inj[i]]: i for i in range(n)}

        tau_img: list[int | None] = []
        tau_inv_img: list[int | None] = []
        for k, r in enumerate(self.positive_roots):
            if k in self._proj_vertex:
                tau_img.append(None)
            else:
                image = mat_vec(phi, r)
                if image not in self.root_index:
                    raise QuiverError("Coxeter transform left the positive roots")
                tau_img.append(self.root_index[image])
            if k in self._inj_vertex:
                tau_inv_img.append(None)
            else:
                image = mat_vec(phi_inv, r)
                if image not in self.root_index:
                    raise QuiverError("inverse Coxeter transform left the roots")
                tau_inv_img.append(self.root_index[image])
        self.hom_table = h0, h1 = self._hom_table(tau_img, tau_inv_img)
        self.hom_masks = tuple(map(_row_masks, (h0, h1, zip(*h0), zip(*h1))))
        # F(M_r[d]) is M_{tau^-1 r}[d - 2], or P_v[d - 1] for r = I_v;
        # F^-1(M_r[d]) is M_{tau r}[d + 2], or I_v[d + 1] for r = P_v.
        proj_roots = [self.root_index[d] for d in proj]
        inj_roots = [self.root_index[d] for d in inj]
        self.f_table = tuple(
            (t, -2) if t is not None else (proj_roots[self._inj_vertex[k]], -1)
            for k, t in enumerate(tau_inv_img))
        self.f_inv_table = tuple(
            (t, 2) if t is not None else (inj_roots[self._proj_vertex[k]], 1)
            for k, t in enumerate(tau_img))

    def _hom_table(self, tau: list[int | None], tau_inv: list[int | None]
                   ) -> tuple[IntMatrix, IntMatrix]:
        """Both Hom arrays, by a recurrence along the tau-orbits.  Four facts
        about a hereditary algebra of Dynkin type give every entry:

        - Hom(P_i, N) = (dim N)_i, and Hom(P_i, N[1]) = Ext^1(P_i, N) = 0.
        - Hom(X, P) = 0 for X indecomposable non-projective and P projective:
          the image of a nonzero map X -> P is a submodule of a projective,
          so projective, and X would split off onto it.
        - Hom(X, Y) = Hom(tau X, tau Y) for X, Y indecomposable
          non-projective: tau is an equivalence from modules modulo maps
          through projectives to modules modulo maps through injectives, and
          no nonzero map X -> Y factors through a projective (previous fact),
          nor tau X -> tau Y through an injective (its dual).
        - Ext^1(X, Y) = D Hom(Y, tau X) for X non-projective (Auslander-
          Reiten formula), and 0 for X projective.

        Every indecomposable is tau^{-k} P_i for some i and k.  So the Hom
        rows of the projectives come first, then those of each
        tau^{-1}-layer in turn, each read off the row of its tau-image; the
        Ext^1 rows are columns of the Hom array."""
        count = len(self.positive_roots)
        hom: list[tuple[int, ...] | None] = [None] * count
        layer = list(self._proj_vertex)
        for x in layer:
            i = self._proj_vertex[x]
            hom[x] = tuple(r[i] for r in self.positive_roots)
        while layer:
            layer = [y for y in map(tau_inv.__getitem__, layer)
                     if y is not None]
            for x in layer:
                below = hom[tau[x]]
                hom[x] = tuple(0 if t is None else below[t] for t in tau)
        if None in hom:
            raise QuiverError("some root lies in no tau-orbit of a projective")
        columns = tuple(zip(*hom))
        zero = (0,) * count
        ext1 = tuple(zero if t is None else columns[t] for t in tau)
        return tuple(hom), ext1

    # -- queries -------------------------------------------------------------

    def is_categorical(self) -> bool:
        return self.family in CATEGORICAL_FAMILIES

    def root_of(self, dim: DimVector) -> int:
        try:
            return self.root_index[tuple(dim)]
        except KeyError:
            raise ValueError(f"{tuple(dim)} is not a positive root") from None

    def is_projective_root(self, root: int) -> bool:
        return root in self._proj_vertex

    def is_injective_root(self, root: int) -> bool:
        return root in self._inj_vertex

    def weyl_order(self) -> int:
        return prod(e + 1 for e in self.exponents)

    def __repr__(self):
        return f"RootSystemData({self.family}{self.n}, {len(self.positive_roots)} positive roots)"


def build_root_system(q: QuiverDescriptor) -> RootSystemData:
    """Assemble all root data for a quiver; raises QuiverError when malformed."""
    return RootSystemData(q)


# ---------------------------------------------------------------------------
# Forms, reflections and counting.
# ---------------------------------------------------------------------------

def _check_length(rs: RootSystemData, v: DimVector) -> None:
    if len(v) != rs.n:
        raise ValueError(f"vector of length {len(v)} in a rank-{rs.n} system")


def euler_form(rs: RootSystemData, d: DimVector, e: DimVector) -> int:
    """The Euler form <d, e> = sum d_i e_i - sum over arrows i->j of d_i e_j.

    >>> rs = build_root_system(QuiverDescriptor.standard("A", 2))
    >>> euler_form(rs, (1, 0), (0, 1))
    -1
    """
    _check_length(rs, d)
    _check_length(rs, e)
    if not rs.is_categorical():
        raise QuiverError("the Euler form needs a simply-laced quiver")
    total = sum(a * b for a, b in zip(d, e))
    for i, j in rs.quiver.arrows:
        total -= d[i - 1] * e[j - 1]
    return total


def sym_form(rs: RootSystemData, d: DimVector, e: DimVector) -> int:
    """The symmetric form (d, e); equals <d,e> + <e,d> in the ADE case."""
    _check_length(rs, d)
    _check_length(rs, e)
    return sum(
        d[i] * rs.sym_matrix[i][j] * e[j] for i in range(rs.n) for j in range(rs.n)
    )


def perp_masks(rs: RootSystemData) -> tuple[int, ...]:
    """Per root x, the bitmask of the roots y with <y, x> = y^T L x = 0, L
    the symmetrizers plus the strictly upper part of sym_matrix.  For A, D,
    E, L is the Euler matrix, <y, x> = dim Hom(M_y, M_x) - dim Ext^1(M_y,
    M_x), and in Dynkin type the two are never both nonzero: the mask holds
    the terms that may follow x in an exceptional sequence.  For B, C, F, G,
    L is the Euler form of the species with Coxeter element s_1 ... s_n.
    Computed on each call (E8 about 20 ms), not at construction.

    >>> rs = build_root_system(QuiverDescriptor.standard("A", 2))
    >>> [bin(mask) for mask in perp_masks(rs)]
    ['0b10', '0b100', '0b1']
    """
    n = rs.n
    form = [[rs.symmetrizers[i] if i == j else rs.sym_matrix[i][j] * (i < j)
             for j in range(n)] for i in range(n)]
    roots = rs.positive_roots
    masks = []
    for x in roots:
        lx = mat_vec(form, x)
        masks.append(sum(1 << k for k, y in enumerate(roots)
                         if not sum(map(mul, y, lx))))
    return tuple(masks)


def reflect(rs: RootSystemData, x: DimVector, v: DimVector) -> DimVector:
    """The reflection t_x(v) = v - (2(v,x)/(x,x)) x along a non-isotropic x.

    Integral whenever x is a root; a non-integral result is rejected.

    >>> rs = build_root_system(QuiverDescriptor.standard("A", 2))
    >>> reflect(rs, (1, 0), (0, 1))
    (1, 1)
    """
    xx = sym_form(rs, x, x)
    if xx == 0:
        raise ValueError("cannot reflect along an isotropic vector")
    coeff = Fraction(2 * sym_form(rs, v, x), xx)
    out = []
    for vi, xi in zip(v, x):
        value = vi - coeff * xi
        if value.denominator != 1:
            raise ValueError(f"reflection along {x} is not integral; not a root")
        out.append(int(value))
    return tuple(out)


def coxeter_transform(rs: RootSystemData, d: DimVector, inverse: bool = False) -> DimVector:
    """Apply the Coxeter matrix (or its inverse) to a class in K_0."""
    if not rs.is_categorical():
        raise QuiverError("the Coxeter transformation needs a simply-laced quiver")
    _check_length(rs, d)
    mat = rs.coxeter_inverse if inverse else rs.coxeter_matrix
    return mat_vec(mat, d)


def fuss_catalan(rs: RootSystemData, m: int) -> int:
    """The Fuss-Catalan number prod(mh + e_i + 1) / prod(e_i + 1), exactly.

    Negative m yields (up to sign) the positive variants: the number of
    positive m-clusters is abs(fuss_catalan(rs, -m-1)).

    >>> rs = build_root_system(QuiverDescriptor.standard("A", 3))
    >>> fuss_catalan(rs, 1)
    14
    >>> rs2 = build_root_system(QuiverDescriptor.standard("A", 2))
    >>> [fuss_catalan(rs2, m) for m in (1, 2, 3)]
    [5, 12, 22]
    """
    h = rs.coxeter_number
    num = prod(m * h + e + 1 for e in rs.exponents)
    den = prod(e + 1 for e in rs.exponents)
    quotient, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(
            f"Fuss-Catalan quotient is not integral for {rs.family}{rs.n}, m={m}"
        )
    return quotient
