"""Exterior products, Grassmann coordinates, subspace heights and duality.

Subspaces of Q^n are stored as canonical echelon bases, so equality and
containment are cheap and exact; meets and joins are eliminations on the
integer core of rational_linalg, one Zassenhaus elimination for a meet.
Heights of subspaces go through the squared Euclidean height of a
Grassmann coordinate vector, which keeps everything rational.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .places_heights import height_two_squared
from .rational_linalg import echelon_fractions, int_echelon, int_kernel, minors, qvec, rank

__all__ = [
    "subsets_lex",
    "wedge",
    "Subspace",
    "subspace_height_sq",
    "orth_complement",
]


def subsets_lex(n: int, p: int) -> tuple[tuple[int, ...], ...]:
    """The C(n,p) p-element subsets of {1..n} in lexicographic order."""
    if not 1 <= p < n:
        raise ValueError(f"need 1 <= p < n, got p={p}, n={n}")
    return tuple(tuple(i + 1 for i in c) for c in combinations(range(n), p))


def wedge(vectors) -> tuple[Fraction, ...]:
    """Exterior product of p vectors in Q^n: the vector of p x p minors.

    Coordinates are indexed by the lexicographic p-subsets of columns;
    the result is zero iff the input vectors are dependent.
    """
    rows = [qvec(v) for v in vectors]
    if not rows:
        raise ValueError("empty wedge")
    n = len(rows[0])
    p = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("dimension mismatch in wedge")
    if not 1 <= p <= n:
        raise ValueError(f"need 1 <= p <= n, got p={p}, n={n}")
    return minors(rows, p)


class Subspace:
    """A rational subspace of Q^n as a canonical reduced-echelon basis.

    `ints` holds the basis as primitive integer rows with positive pivots
    (the output of rational_linalg.int_echelon); `rows`, the reduced
    row-echelon Fraction basis, is built from it on first use.  Both are
    canonical: subspaces are equal iff their bases are.
    """

    __slots__ = ("n", "ints", "pivots", "_rows")

    def __init__(self, n: int, rows=(), _canonical: bool = False):
        """`_canonical` marks rows that already are a primitive integer echelon."""
        if n < 0:
            raise ValueError("ambient dimension must be >= 0")
        rows = list(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("basis rows must have length n")
        self.n = n
        self.ints = tuple(map(tuple, rows if _canonical else int_echelon(rows)[0]))
        self.pivots = tuple(next(i for i, x in enumerate(r) if x) for r in self.ints)
        self._rows = None

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        if self._rows is None:
            self._rows = tuple(map(tuple, echelon_fractions(self.ints)))
        return self._rows

    @staticmethod
    def zero(n: int) -> "Subspace":
        return Subspace(n, (), _canonical=True)

    @staticmethod
    def full(n: int) -> "Subspace":
        return Subspace(n, [[int(i == j) for j in range(n)] for i in range(n)], _canonical=True)

    @staticmethod
    def span(n: int, vectors) -> "Subspace":
        return Subspace(n, vectors)

    @staticmethod
    def kernel(n: int, forms) -> "Subspace":
        """Common kernel in Q^n of the given linear forms."""
        return Subspace(n, int_kernel(forms, n), _canonical=True)

    @property
    def dim(self) -> int:
        return len(self.ints)

    def contains_vector(self, x) -> bool:
        return rank(self.ints + (x,)) == self.dim

    def contains(self, other: "Subspace") -> bool:
        if other.dim > self.dim:
            return False
        return rank(self.ints + other.ints) == self.dim

    def intersect(self, other: "Subspace") -> "Subspace":
        """U cap W by Zassenhaus: eliminate the rows (u | u) and (w | 0).

        The echelon rows whose left half is zero have right halves that
        form the canonical echelon basis of U cap W.
        """
        n = self.n
        if n != other.n:
            raise ValueError("ambient dimension mismatch")
        if self.dim == 0 or other.dim == n or self == other:
            return self
        if other.dim == 0 or self.dim == n:
            return other
        zeros = (0,) * n
        red, pivots = int_echelon([u + u for u in self.ints] + [w + zeros for w in other.ints])
        return Subspace(n, [row[n:] for row, pc in zip(red, pivots) if pc >= n], _canonical=True)

    def add(self, other: "Subspace") -> "Subspace":
        n = self.n
        if n != other.n:
            raise ValueError("ambient dimension mismatch")
        if other.dim == 0 or self.dim == n or self == other:
            return self
        if self.dim == 0 or other.dim == n:
            return other
        return Subspace(n, int_echelon(self.ints + other.ints)[0], _canonical=True)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.n == other.n and self.ints == other.ints

    def __hash__(self):
        return hash((self.n, self.ints))

    def __repr__(self):
        return f"Subspace(n={self.n}, dim={self.dim})"


def subspace_height_sq(t: Subspace) -> Fraction:
    """H_2(T)^2; equal to 1 for the zero and full subspaces.

    Computed from the echelon basis; basis-independent because Grassmann
    coordinates of two bases differ by a nonzero scalar.
    """
    if t.dim == 0 or t.dim == t.n:
        return Fraction(1)
    return height_two_squared(wedge(t.rows))


def orth_complement(t: Subspace) -> Subspace:
    """The space of linear forms vanishing on T, as a subspace of Q^n."""
    if t.dim == 0:
        return Subspace.full(t.n)
    return Subspace.kernel(t.n, t.ints)
