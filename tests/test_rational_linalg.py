"""Property tests: the integer elimination core against plain Fraction routes."""

import math
from fractions import Fraction
from itertools import permutations

from hypothesis import given, settings, strategies as st

from heightlab.exterior_algebra import Subspace
from heightlab.rational_linalg import det, echelon_fractions, int_echelon, int_kernel, rank

F = Fraction
SETTINGS = settings(max_examples=150, deadline=None)


def oracle_rref(rows):
    """Gauss-Jordan over Fraction: the elimination rref used before the integer core."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
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


def oracle_kernel(rows, ncols):
    """rref basis of {x : A x = 0}, read off the oracle rref of A."""
    red, pivots = oracle_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(v)
    return oracle_rref(basis)[0]


def leibniz_det(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


entries = st.fractions(min_value=-6, max_value=6, max_denominator=6)
# mostly small values, with zeros frequent enough to leave columns without pivots
sparse = st.one_of(st.just(F(0)), entries, st.integers(-3, 3).map(F))


@st.composite
def matrices(draw, rows=st.integers(0, 6), cols=st.integers(1, 6)):
    """Rational matrices, wide or tall, with extra zero, repeated and scaled rows."""
    nrows, ncols = draw(rows), draw(cols)
    m = [draw(st.lists(sparse, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["zero", "repeat", "combination"]))
        if kind == "zero" or not m:
            m.insert(draw(st.integers(0, len(m))), [F(0)] * ncols)
        elif kind == "repeat":
            m.append(list(draw(st.sampled_from(m))))
        else:
            a, b = draw(st.sampled_from(m)), draw(st.sampled_from(m))
            s, t = draw(entries), draw(entries)
            m.insert(draw(st.integers(0, len(m))), [s * x + t * y for x, y in zip(a, b)])
    return m


@st.composite
def subspace_pairs(draw):
    n = draw(st.integers(1, 5))
    dims = st.integers(0, n + 1)
    u = draw(matrices(rows=dims, cols=st.just(n)))
    w = draw(matrices(rows=dims, cols=st.just(n)))
    return n, Subspace(n, u), Subspace(n, w)


@SETTINGS
@given(matrices())
def test_rref_matches_fraction_oracle(m):
    red, pivots = int_echelon(m)
    assert (echelon_fractions(red), pivots) == oracle_rref(m)
    assert rank(m) == len(oracle_rref(m)[1])


@SETTINGS
@given(matrices())
def test_echelon_rows_are_primitive_with_positive_pivots(m):
    red, pivots = int_echelon(m)
    for row, pc in zip(red, pivots):
        assert all(type(x) is int for x in row)
        assert row[pc] > 0 and all(x == 0 for x in row[:pc])
        assert math.gcd(*row) == 1
        assert all(other[pc] == 0 for other in red if other is not row)


@st.composite
def square_matrices(draw):
    """n x n matrices, n <= 4; some with a row that combines two others."""
    n = draw(st.integers(0, 4))
    m = [draw(st.lists(sparse, min_size=n, max_size=n)) for _ in range(n)]
    if n >= 3 and draw(st.booleans()):
        s, t = draw(entries), draw(entries)
        m[-1] = [s * x + t * y for x, y in zip(m[0], m[1])]
    return m


@SETTINGS
@given(square_matrices())
def test_det_matches_leibniz(m):
    assert det(m) == leibniz_det(m)


@SETTINGS
@given(matrices())
def test_kernel_basis_matches_oracle(m):
    ncols = len(m[0]) if m else 3
    basis = echelon_fractions(int_kernel(m, ncols))
    assert basis == oracle_kernel(m, ncols)
    for v in basis:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)


@SETTINGS
@given(subspace_pairs())
def test_zassenhaus_intersection_matches_annihilator_route(case):
    n, u, w = case
    # U cap W is the common kernel of the forms vanishing on U and on W
    ann = oracle_kernel(u.rows, n) + oracle_kernel(w.rows, n)
    expected = oracle_kernel(ann, n) if ann else oracle_rref(Subspace.full(n).rows)[0]
    cap = u.intersect(w)
    assert [list(r) for r in cap.rows] == expected
    assert cap == w.intersect(u)


@SETTINGS
@given(subspace_pairs())
def test_dimension_formula_and_sum(case):
    n, u, w = case
    total = u.add(w)
    assert [list(r) for r in total.rows] == oracle_rref(list(u.rows) + list(w.rows))[0]
    assert u.intersect(w).dim + total.dim == u.dim + w.dim
    assert total.contains(u) and total.contains(w)
    assert u.contains(u.intersect(w)) and w.contains(u.intersect(w))


@SETTINGS
@given(matrices(cols=st.integers(1, 5)))
def test_subspace_rows_are_the_fraction_rref(m):
    n = len(m[0]) if m else 2
    s = Subspace(n, m)
    assert [list(r) for r in s.rows] == oracle_rref(m)[0]
    assert s.pivots == tuple(oracle_rref(m)[1])
    assert all(s.contains_vector(r) for r in m)
