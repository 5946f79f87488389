"""Small exact linear algebra kit over Q, on one integer elimination core.

Row vectors are tuples of Fraction; matrices are lists/tuples of rows.
Every elimination runs through `int_echelon`: each row is cleared of its
denominators, and fraction-free Gauss-Jordan elimination runs on the
integer rows -- kept primitive with a positive pivot, or, for `det`,
divided exactly by the previous pivot (Bareiss, Math. Comp. 22, 1968).
Fractions are built only at the boundary: the reduced-echelon rows of
`echelon_fractions` and determinants.  Sized for the n <= 6 ambient
dimensions this package works in.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

__all__ = [
    "qvec",
    "int_row",
    "int_echelon",
    "int_kernel",
    "echelon_fractions",
    "rank",
    "det",
    "mat_mul",
    "minors",
    "RankTracker",
]


def qvec(seq) -> tuple[Fraction, ...]:
    """Coerce a sequence of ints/Fractions/strings into a Fraction tuple."""
    return tuple(Fraction(x) for x in seq)


def _cleared(row) -> tuple[list[int], int]:
    """(integer row, d): the row times d, the lcm of its denominators."""
    try:
        d = lcm(*[x.denominator for x in row])
    except AttributeError:  # strings, floats: go through Fraction
        row = qvec(row)
        d = lcm(*[x.denominator for x in row])
    if d == 1:
        return [x.numerator for x in row], 1
    return [x.numerator * (d // x.denominator) for x in row], d


def int_row(row) -> list[int]:
    """The row times the lcm of its denominators: an integer row on the same line."""
    return _cleared(row)[0]


def int_echelon(rows, bareiss: bool = False) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination; returns (rows, pivot columns).

    The rows (rational entries of any kind) are cleared to integer rows
    with the same span.  The result has one integer row per pivot column,
    zero at every other pivot column; zero rows are dropped.  By default
    every row is kept primitive with a positive pivot, which makes the
    result canonical: two row spaces are equal iff the outputs are equal,
    and dividing each row by its pivot entry gives the rref.  With
    `bareiss` each update is instead divided exactly by the previous
    pivot, and a row swap negates the row moved down, so for a
    nonsingular square integer matrix every pivot entry ends equal to the
    determinant.
    """
    m = [_cleared(r)[0] for r in rows]
    if not bareiss:
        m = [_primitive(r) for r in m if any(r)]
    if not m:
        return [], []
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(len(m[0])):
        for i in range(r, len(m)):
            if m[i][c]:
                break
        else:
            continue
        if i != r:
            m[r], m[i] = m[i], ([-x for x in m[r]] if bareiss else m[r])
        prow = m[r]
        p = prow[c]
        if bareiss:
            for i, row in enumerate(m):
                if i != r:
                    a = row[c]
                    m[i] = [(p * x - a * y) // prev for x, y in zip(row, prow)]
            prev = p
        else:
            if p < 0:
                prow = m[r] = [-x for x in prow]
                p = -p
            for i, row in enumerate(m):
                a = row[c]
                if a and i != r:
                    g = gcd(a, p)
                    s, t = p // g, a // g
                    m[i] = _primitive([s * x - t * y for x, y in zip(row, prow)])
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def echelon_fractions(rows) -> list[list[Fraction]]:
    """The rref rows of a primitive integer echelon: each row over its pivot."""
    out = []
    for row in rows:
        p = next(x for x in row if x)
        out.append([Fraction(x, p) for x in row])
    return out


def rank(rows) -> int:
    return len(int_echelon(rows)[1])


def det(rows) -> Fraction:
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("det needs a square matrix")
    if n == 0:
        return Fraction(1)
    m = []
    scale = 1
    for row in rows:
        ints, d = _cleared(row)
        m.append(ints)
        scale *= d
    red, pivots = int_echelon(m, bareiss=True)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(red[-1][-1], scale)


def int_kernel(rows, ncols: int) -> list[list[int]]:
    """Primitive integer echelon basis (see int_echelon) of {x : A x = 0}."""
    red, pivots = int_echelon(rows)
    d = lcm(*(row[pc] for row, pc in zip(red, pivots)))
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [0] * ncols
        v[fc] = d
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc] * (d // row[pc])
        basis.append(v)
    return int_echelon(basis)[0]


def mat_mul(a, b) -> list[list[Fraction]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


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
    the rows iff something nonzero is left.  Every caller adds integer
    vectors, so no Fraction is built.
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
