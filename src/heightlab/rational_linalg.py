"""Small exact linear algebra kit over Fraction.

Row vectors are tuples of Fraction; matrices are lists/tuples of rows.
Everything here is plain Gaussian elimination, sized for the n <= 6
ambient dimensions this package works in.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

__all__ = [
    "qvec",
    "rref",
    "rank",
    "det",
    "kernel_basis",
    "mat_vec",
    "mat_mul",
    "identity",
    "solve_exact",
    "minors",
    "RankTracker",
]


def qvec(seq) -> tuple[Fraction, ...]:
    """Coerce a sequence of ints/Fractions/strings into a Fraction tuple."""
    return tuple(Fraction(x) for x in seq)


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row-echelon form; returns (rows, pivot column indices).

    Zero rows are dropped, so the result is a canonical basis of the row
    space: two row spaces are equal iff their rref outputs are equal.
    """
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [row for row in m[:r]], pivots


def rank(rows) -> int:
    return len(rref(rows)[0])


def det(rows) -> Fraction:
    m = [list(map(Fraction, r)) for r in rows]
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("det needs a square matrix")
    sign = 1
    result = Fraction(1)
    for c in range(n):
        piv = None
        for i in range(c, n):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        result *= m[c][c]
        inv = Fraction(1) / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return sign * result


def kernel_basis(rows, ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis (rref rows) of {x : A x = 0} for the matrix with given rows."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(tuple(v))
    out, _ = rref(basis)
    return [tuple(r) for r in out]


def mat_vec(rows, x) -> tuple[Fraction, ...]:
    return tuple(sum(a * b for a, b in zip(r, x)) for r in rows)


def mat_mul(a, b) -> list[list[Fraction]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def solve_exact(rows, rhs) -> tuple[Fraction, ...] | None:
    """One solution of A x = rhs, or None if inconsistent."""
    aug = [list(map(Fraction, r)) + [Fraction(v)] for r, v in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    red, pivots = rref(aug)
    for row in red:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    x = [Fraction(0)] * ncols
    for i, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = red[i][-1]
    return tuple(x)


def minors(rows, p: int) -> tuple[Fraction, ...]:
    """All p x p minors of a p x n matrix, columns in lexicographic order."""
    n = len(rows[0])
    out = []
    for cols in combinations(range(n), p):
        sub = [[row[c] for c in cols] for row in rows]
        out.append(det(sub))
    return tuple(out)


class RankTracker:
    """Incremental rank of a growing set of vectors, without division.

    Stored rows have pairwise distinct pivots (first nonzero entries), and
    each row is zero at the pivots of the rows stored before it.  A new
    vector v is reduced against each row in turn by v <- b*v - a*row, with
    b the row's pivot entry and a the entry of v there; v is independent of
    the rows iff something nonzero is left.  Int rows stay integer; Fraction
    rows work the same way.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = []  # (pivot column, row)

    def __len__(self) -> int:
        return len(self.rows)

    def try_add(self, vec) -> bool:
        """Store vec and return True iff it is independent of the stored rows."""
        v = vec
        for piv, row in self.rows:
            a = v[piv]
            if a:
                b = row[piv]
                v = [b * x - a * y for x, y in zip(v, row)]
        for i, x in enumerate(v):
            if x:
                self.rows.append((i, tuple(v)))
                return True
        return False
