"""Root systems of Dynkin quivers.

Positive roots, the Cartan, symmetrized and Euler matrices, the Coxeter
element and its inverse, exponents and Fuss-Catalan numbers.  Everything is
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
from math import prod
from operator import add, mul

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
        try:
            object.__setattr__(self, "arrows", tuple(map(tuple, self.arrows)))
        except TypeError:
            raise QuiverError("every arrow must be a pair of integers") from None
        _validate_quiver(self)

    @staticmethod
    def standard(family: str, rank: int) -> "QuiverDescriptor":
        """The standard orientation: a linearly oriented path, with branch
        arrows out of the fork vertex for types D and E."""
        _check_fields(family, rank)
        if family in WEYL_ONLY_FAMILIES:
            return QuiverDescriptor(family, rank)
        if family == "A":
            arrows = [(i, i + 1) for i in range(1, rank)]
        elif family == "D":
            arrows = [(i, i + 1) for i in range(1, rank - 1)] + [(rank - 2, rank)]
        else:   # E
            arrows = [(i, i + 1) for i in range(1, rank - 1)] + [(3, rank)]
        return QuiverDescriptor(family, rank, tuple(arrows))


def _check_fields(fam, n) -> None:
    """The family must be a str naming a known family, the rank an int."""
    if not isinstance(fam, str) or fam not in CATEGORICAL_FAMILIES | WEYL_ONLY_FAMILIES:
        raise QuiverError(f"unknown family {fam!r}; expected one of A,B,C,D,E,F,G")
    if type(n) is not int:      # no bool or float
        raise QuiverError(f"rank must be an int, not {n!r}")


def _validate_quiver(q: QuiverDescriptor) -> None:
    fam, n = q.family, q.rank
    _check_fields(fam, n)
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
    if not all(len(a) == 2 and all(type(v) is int for v in a) for a in q.arrows):
        raise QuiverError("every arrow must be a pair of integers")
    for i, j in q.arrows:
        if not (1 <= i <= n and 1 <= j <= n):
            raise QuiverError(f"arrow ({i},{j}) leaves the vertex range 1..{n}")
        if i >= j:
            raise QuiverError(
                f"arrow ({i},{j}) violates the topological numbering i < j"
            )
    # Sylvester: the Cartan matrix is positive definite exactly when every
    # leading minor is positive; the last one computed is then the
    # determinant, and otherwise not positive.  A doubled arrow or a
    # shortest cycle (it has no chord) spans a principal block that is not
    # positive definite, so with n - 1 arrows a positive-definite quiver is
    # a tree: of type A, D or E, with determinant n + 1, 4 or 9 - n.  Those
    # differ at every rank the rules above allow; D3 shares A3's, E5 D5's.
    if (len(q.arrows) != n - 1 or _leading_minors(_arrow_cartan(n, q.arrows))[-1]
            != {"A": n + 1, "D": 4, "E": 9 - n}[fam]):
        raise QuiverError(
            f"underlying graph of the arrows is not the {fam}{n} Dynkin diagram"
        )


def _arrow_cartan(n: int, arrows) -> IntMatrix:
    """2 on the diagonal; off it, minus the number of arrows between i and j."""
    cartan = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in arrows:
        cartan[i - 1][j - 1] -= 1
        cartan[j - 1][i - 1] -= 1
    return tuple(map(tuple, cartan))


def _leading_minors(m: IntMatrix) -> list[int]:
    """The leading principal minors of m, from the empty one, 1, up to the
    first that is not positive, by fraction-free (Bareiss) elimination of
    the trailing block, row-major in a flat list of width w: its corner is
    the next minor, and dividing by the minor before is exact."""
    w, block, minors = len(m), [x for row in m for x in row], [1]
    while w:
        pivot = block[0]
        minors.append(pivot)
        if pivot <= 0:
            break
        block = [(block[i + j] * pivot - block[i] * block[j]) // minors[-2]
                 for i in range(w, w * w, w) for j in range(1, w)]
        w -= 1
    return minors


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


def _reflection_product(cartan: IntMatrix, order) -> IntMatrix:
    """The product of the simple reflections s_i, i in order, leftmost first.
    s_i is the identity with row i replaced by e_i minus row i of the Cartan
    matrix, so left-multiplying by it rewrites row i alone: the product is
    built right to left, one row update per factor."""
    rows = [list(row) for row in mat_identity(len(cartan))]
    for i in reversed(order):
        terms = [(c, rows[j]) for j, c in enumerate(cartan[i]) if c]
        rows[i] = [x - sum(c * row[k] for c, row in terms)
                   for k, x in enumerate(rows[i])]
    return tuple(map(tuple, rows))


# ---------------------------------------------------------------------------
# The assembled root system.
# ---------------------------------------------------------------------------

class RootSystemData:
    """Root-combinatorial data of a quiver.  Immutable after construction;
    instances may be shared freely across threads.

    For every family it holds the Cartan matrix, the symmetrized matrix
    diag(symmetrizers) times it, and the Euler matrix: the symmetrizers on
    the diagonal and the symmetrized matrix above it, zero below.  For A, D,
    E that is the Euler form of the quiver, I minus the arrow counts; for B,
    C, F, G that of the species.  Beside them sit the Coxeter element
    `coxeter_matrix` = s_1 ... s_n in vertex order, the Coxeter
    transformation on K_0, `coxeter_inverse` = s_n ... s_1, and `pairing`,
    the Euler form on the positive roots: pairing[x][y] = <x, y> = x^T E y.

    For the A, D, E families construction also fills `hom_table`, the sign
    split of `pairing`: entry hom_table[gap][rx][ry] is dim Hom(M_rx[0],
    M_ry[gap]) for gap 0 and 1, the only degree gaps at which two stalk
    complexes can interact.  Beside it sit `hom_masks`, the nonzero
    patterns of its rows and columns as bitmasks over the roots, and
    `f_table`/`f_inv_table`, the autoequivalence F = [-2]tau^{-1} and its
    inverse on (root, degree), the one table of tau as well (tau =
    F^{-1}[-2]).

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
            self.cartan_matrix: IntMatrix = _arrow_cartan(n, quiver.arrows)
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

        self.euler_matrix: IntMatrix = tuple(
            tuple(self.symmetrizers[i] if i == j else self.sym_matrix[i][j] * (i < j)
                  for j in range(n))
            for i in range(n)
        )
        self.coxeter_matrix: IntMatrix = _reflection_product(
            self.cartan_matrix, range(n))
        self.coxeter_inverse: IntMatrix = _reflection_product(
            self.cartan_matrix, range(n - 1, -1, -1))

        self.positive_roots: tuple[DimVector, ...] = self._close_roots()
        self.root_index: dict[DimVector, int] = {
            r: k for k, r in enumerate(self.positive_roots)
        }
        two_count = 2 * len(self.positive_roots)
        if two_count % n:
            raise QuiverError("positive-root count is not n*h/2 for any integer h")
        self.coxeter_number: int = two_count // n
        self.exponents: tuple[int, ...] = self._exponents()
        self.pairing: IntMatrix = self._pairing()

        # Categorical (ADE) layer: the projective/injective dimension vectors
        # and the tables built on them.
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

    def _pairing(self) -> IntMatrix:
        """P[x][y] = <x, y> = x^T E y over the positive roots, E =
        euler_matrix.  Row x is linear in x: the row of the simple e_i holds
        coordinate i of each E y, and every other positive root r has an i
        with r - e_i a positive root, so its row is theirs added."""
        n, roots = self.n, self.positive_roots
        rows = [tuple(sum(map(mul, e, y)) for y in roots) for e in self.euler_matrix]
        for r in roots[n:]:
            for i in range(n):
                below = self.root_index.get(r[:i] + (r[i] - 1,) + r[i + 1:])
                if below is not None:
                    break
            rows.append(tuple(map(add, rows[below], rows[i])))
        return tuple(rows)

    def _build_categorical(self) -> None:
        n = self.n
        phi, phi_inv = self.coxeter_matrix, self.coxeter_inverse
        # E = I - N with N strictly upper triangular, so E^-1 = sum N^k
        # exactly.  N counts the arrows i -> j, and E^-1[i][j] the paths: the
        # rows of E^-1 are the dim P_i, its columns the dim I_i.
        nmat = tuple(tuple(-x * (i != j) for j, x in enumerate(row))
                     for i, row in enumerate(self.euler_matrix))
        npow = einv = mat_identity(n)
        for _ in range(n - 1):
            npow = mat_mul(npow, nmat)
            einv = tuple(tuple(map(add, a, b)) for a, b in zip(einv, npow))
        proj = einv
        inj = mat_transpose(einv)
        # The Coxeter matrix comes from the Cartan rows, E^-1 from the paths.
        for i in range(n):
            if proj[i] not in self.root_index or inj[i] not in self.root_index:
                raise QuiverError("projective dimension vector is not a root")
            if mat_vec(phi, proj[i]) != vec_neg(inj[i]):
                raise QuiverError("Coxeter matrix does not send dim P_i to -dim I_i")

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
        # The modules are representation-directed: Hom and Ext^1 between
        # two indecomposables are never both nonzero, so <x, y>, which is
        # dim Hom(M_x, M_y) - dim Ext^1(M_x, M_y), gives each by its sign.
        h0 = tuple(tuple([v if v > 0 else 0 for v in row]) for row in self.pairing)
        h1 = tuple(tuple([-v if v < 0 else 0 for v in row]) for row in self.pairing)
        self.hom_table = h0, h1
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
# Perpendicular masks and counting.
# ---------------------------------------------------------------------------

def perp_masks(rs: RootSystemData) -> tuple[int, ...]:
    """Per root x, the bitmask of the roots y with <y, x> = 0: the zero
    pattern of column x of rs.pairing.  For A, D, E, <y, x> = dim Hom(M_y,
    M_x) - dim Ext^1(M_y, M_x), and in Dynkin type the two are never both
    nonzero: the mask holds the terms that may follow x in an exceptional
    sequence.  For B, C, F, G the pairing is the Euler form of the species
    with Coxeter element s_1 ... s_n.  Read on each call (E8 under 1 ms).

    >>> rs = build_root_system(QuiverDescriptor.standard("A", 2))
    >>> [bin(mask) for mask in perp_masks(rs)]
    ['0b10', '0b100', '0b1']
    """
    return tuple(sum(1 << y for y, v in enumerate(column) if not v)
                 for column in zip(*rs.pairing))


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
