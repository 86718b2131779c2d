"""Exceptional sequences in the derived category and their mutations.

A sequence (E_1, ..., E_r) of stalk objects is exceptional when the
underlying module sequence is: Hom and Ext^1 vanish from later to earlier
terms.  Right mutation replaces the adjacent pair (E_i, E_{i+1}) by
(E_{i+1}, E_i*) through the approximation triangle; the composite mu_rev
of n(n-1)/2 right mutations carries silting sequences to configuration
sequences and back.

Positions are 1-based throughout, matching the operator subscripts:
mutate(seq, i, ...) acts on the pair at positions (i, i+1).
"""
from __future__ import annotations

import enum
import random
from typing import Iterable, Iterator

from .derived import DObj, class_of, nonzero_exts, nu_inv, object_of_class, shift
from .roots import RootSystemData, perp_masks, vec_scale, vec_sub

ExcSeq = tuple[DObj, ...]


class MutationSign(enum.Enum):
    """Classification of one mutation by the degree of its approximation.

    The unique p with Hom(E_i, E_{i+1}[p]) nonzero puts the approximation
    triangle in the normal form with index j = p - 1; the mutation is
    negative when j < 0 and non-negative when j >= 0.  When the pair is
    orthogonal there is no approximation and no sign.
    """

    NEGATIVE = "negative"
    NONNEGATIVE = "nonnegative"
    ORTHOGONAL = "orthogonal"


class MutationError(RuntimeError):
    """An internal consistency failure: mutation produced a non-root class,
    an ambiguous degree, or an output violating a theorem-backed postcondition."""


def is_exceptional(items: Iterable[DObj]) -> bool:
    """Whether the list of objects forms an exceptional sequence: no Ext at
    all from a later term to an earlier one, which for stalks is Hom and
    Ext^1 vanishing between the underlying modules."""
    seq = tuple(items)
    for j in range(len(seq)):
        for i in range(j):
            if nonzero_exts(seq[j], seq[i]):
                return False
    return True


def _approximation(a: DObj, b: DObj) -> tuple[int, int] | None:
    """The unique (p, r) with r = dim Hom(a, b[p]) nonzero, or None.

    Stalk objects interact in at most two consecutive shifts, and for an
    exceptional pair at most one of them is nonzero.
    """
    hits = nonzero_exts(a, b)
    if not hits:
        return None
    if len(hits) > 1:
        raise MutationError(
            f"pair ({a!r}, {b!r}) interacts in two shifts; sequence not exceptional"
        )
    return hits[0]


def mutate(seq: ExcSeq, i: int, direction: str = "right") -> tuple[ExcSeq, MutationSign]:
    """Mutate the exceptional pair at positions (i, i+1), 1-based.

    Right mutation sends (E_i, E_{i+1}) to (E_{i+1}, E_i*); left mutation
    sends it to (E_{i+1}^!, E_i).  The new object is pinned down by its
    class in K_0 together with a two-degree hint, which the sign parity of
    the class resolves uniquely.  The caller must pass an exceptional
    sequence; internal failures raise MutationError.
    """
    seq = tuple(seq)
    if not 1 <= i <= len(seq) - 1:
        raise ValueError(f"mutation position {i} out of range 1..{len(seq) - 1}")
    if direction not in ("right", "left"):
        raise ValueError(f"direction must be 'right' or 'left', not {direction!r}")
    a, b = seq[i - 1], seq[i]
    rs = a.rs
    approx = _approximation(a, b)
    if approx is None:
        pair = (b, a)
        sign = MutationSign.ORTHOGONAL
    else:
        p, r = approx
        sign = MutationSign.NEGATIVE if p <= 0 else MutationSign.NONNEGATIVE
        if direction == "right":
            cls = vec_sub(class_of(a), vec_scale(r, class_of(shift(b, p))))
            new = object_of_class(rs, cls, (a.degree, a.degree - 1))
            pair = (b, new)
        else:
            cls = vec_sub(class_of(b), vec_scale(r, class_of(shift(a, -p))))
            new = object_of_class(rs, cls, (b.degree, b.degree + 1))
            pair = (new, a)
    return seq[: i - 1] + pair + seq[i + 1 :], sign


# ---------------------------------------------------------------------------
# The reversal composite mu_rev.
# ---------------------------------------------------------------------------

def mu_rev_order(n: int) -> list[int]:
    """Positions, in application order, of the standard presentation
    mu_{n-1} (mu_{n-2} mu_{n-1}) ... (mu_1 ... mu_{n-1})."""
    return [i for k in range(1, n) for i in range(n - 1, k - 1, -1)]


def _check_complete(seq: ExcSeq) -> RootSystemData:
    if not seq:
        raise ValueError("empty sequence")
    rs = seq[0].rs
    if len(seq) != rs.n:
        raise ValueError(
            f"complete exceptional sequence of length {rs.n} required, got {len(seq)}"
        )
    return rs


def _steps(seq: ExcSeq, order: Iterable[int], direction: str
           ) -> Iterator[tuple[int, MutationSign, ExcSeq]]:
    """Mutate a complete sequence at each position of order in turn,
    yielding (position, sign, sequence after the step)."""
    _check_complete(seq)
    current = tuple(seq)
    for i in order:
        current, sign = mutate(current, i, direction)
        yield i, sign, current


def _run(seq: ExcSeq, steps) -> tuple[ExcSeq, tuple[MutationSign, ...]]:
    """The sequence after the last step, and the signs of all steps."""
    current, signs = tuple(seq), []
    for _, sign, current in steps:
        signs.append(sign)
    return current, tuple(signs)


def mu_rev_steps(seq: ExcSeq) -> Iterator[tuple[int, MutationSign, ExcSeq]]:
    """Drive mu_rev one right mutation at a time, yielding
    (position, sign, sequence after the step), in the standard presentation
    mu_rev_order(n)."""
    return _steps(seq, mu_rev_order(len(seq)), "right")


def mu_rev(seq: ExcSeq) -> tuple[ExcSeq, tuple[MutationSign, ...]]:
    """Apply the full reversal composite; also report the signs encountered."""
    return _run(seq, mu_rev_steps(seq))


def mu_rev_inverse_steps(seq: ExcSeq) -> Iterator[tuple[int, MutationSign, ExcSeq]]:
    """Drive the inverse composite: left mutations in reversed order."""
    return _steps(seq, reversed(mu_rev_order(len(seq))), "left")


def mu_rev_inverse(seq: ExcSeq) -> tuple[ExcSeq, tuple[MutationSign, ...]]:
    """The two-sided inverse of mu_rev."""
    return _run(seq, mu_rev_inverse_steps(seq))


def rotate(seq: ExcSeq) -> ExcSeq:
    """Apply mu_{n-1} ... mu_1 and assert it equals (E_2, ..., E_n, nu^{-1} E_1)."""
    current, _ = _run(seq, _steps(seq, range(1, len(seq)), "right"))
    expected = tuple(seq[1:]) + (nu_inv(seq[0]),)
    if current != expected:
        raise MutationError("rotation did not produce (E_2, ..., E_n, nu^{-1} E_1)")
    return current


# ---------------------------------------------------------------------------
# Complete sequences of modules over perpendicular categories.
# ---------------------------------------------------------------------------
#
# After a prefix (E_1, ..., E_k) the terms that may follow are the
# indecomposables Z with Hom(Z, E_i) = 0 = Ext^1(Z, E_i) for every i: the
# perpendicular category of the prefix, a wide subcategory (Crawley-Boevey).
# So the state of a search is one root bitmask, the AND of the masks
# perp[x] of the prefix, which roots.perp_masks reads off the zeros of the
# Euler pairing rs.pairing.

def _all_roots(rs: RootSystemData) -> int:
    """The mask of every root: the whole module category."""
    return (1 << len(rs.positive_roots)) - 1


def _bits(mask: int) -> Iterator[int]:
    """The set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _words(perp: tuple[int, ...], mask: int, prefix: tuple[int, ...] = ()
           ) -> Iterator[tuple[int, ...]]:
    """Each complete exceptional sequence of the perpendicular category with
    root mask `mask`, as a word of root indices after `prefix`, in
    lexicographic order, yielded as soon as it is found: a term x of the
    category leaves the category mask & perp[x] to the terms after it."""
    if not mask:
        yield prefix
        return
    for x in _bits(mask):
        yield from _words(perp, mask & perp[x], prefix + (x,))


def _complete_sequences(rs: RootSystemData) -> Iterator[ExcSeq]:
    """Each complete exceptional sequence of modules, by depth-first search
    over the roots in stored order, yielded as soon as it is found."""
    modules = [DObj(rs, root, 0) for root in range(len(rs.positive_roots))]
    return (tuple(map(modules.__getitem__, word))
            for word in _words(perp_masks(rs), _all_roots(rs)))


def enumerate_complete_sequences(rs: RootSystemData) -> list[ExcSeq]:
    """All complete exceptional sequences of modules, by depth-first search
    over perpendicular masks.

    Independent of the mutation machinery (A2 gives 3, A3 gives 16, D4
    gives 162).
    """
    return list(_complete_sequences(rs))


def _sequence_counts(rs: RootSystemData) -> dict[int, int]:
    """The number of complete exceptional sequences of each perpendicular
    category the search reaches, keyed by its root mask:
    count(S) = sum over x in S of count(S & perp[x]), count(0) = 1.  The
    whole module category is _all_roots(rs)."""
    perp = perp_masks(rs)
    memo = {0: 1}

    def count(allowed: int) -> int:
        if allowed not in memo:
            memo[allowed] = sum(count(allowed & perp[x]) for x in _bits(allowed))
        return memo[allowed]

    count(_all_roots(rs))
    return memo


def _sample_complete_sequences(rs: RootSystemData, counts: dict[int, int],
                               size: int, seed: int) -> Iterator[ExcSeq]:
    """size complete exceptional sequences of modules, drawn independently
    and uniformly from a random.Random(seed): each term x of the
    perpendicular category S is taken with probability
    count(S & perp[x]) / count(S), where counts is _sequence_counts(rs)."""
    modules = [DObj(rs, root, 0) for root in range(len(rs.positive_roots))]
    perp = perp_masks(rs)
    rng = random.Random(seed)
    for _ in range(size):
        seq, allowed = (), _all_roots(rs)
        while allowed:
            pick = rng.randrange(counts[allowed])
            for x in _bits(allowed):
                pick -= counts[allowed & perp[x]]
                if pick < 0:
                    break
            seq += (modules[x],)
            allowed &= perp[x]
        yield seq
