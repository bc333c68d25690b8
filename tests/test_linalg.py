import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvfi.linalg import (
    SolveOutcome,
    as_vector,
    infeasibility_certificate,
    nullspace,
    solve_constrained,
    vec_dot,
)

from conftest import as_matrix, rank


def mat_vec(m, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def test_rank_examples():
    assert rank(as_matrix([[0, 0], [0, 0]])) == 0
    assert rank(as_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3
    assert rank(as_matrix([[1, 2], [2, 4], [3, 6]])) == 1


def test_solve_consistent_overdetermined():
    m = as_matrix([[1, 0], [0, 1], [1, 1]])
    out = solve_constrained(m, [1, 2, 3])
    assert out.status == "unique"
    assert out.solution == (1, 2)
    with pytest.raises(ValueError):
        infeasibility_certificate(m, [1, 2, 3])


def test_solve_infeasible_with_certificate():
    m = as_matrix([[1, 0], [0, 1], [1, 1]])
    out = solve_constrained(m, [1, 2, 4])
    assert out.status == "infeasible"
    y = infeasibility_certificate(m, [1, 2, 4])
    # certificate: y m = 0 and y . r != 0
    for j in range(2):
        assert sum(y[i] * m[i][j] for i in range(3)) == 0
    assert vec_dot(y, as_vector([1, 2, 4])) != 0


def test_exponent_solve_closed_forms():
    # 2D zero-e case with a11=1, a12=2, a21=3, a22=1 and b chosen on the
    # solvability manifold: the closed forms give l1 = -2/5, l2 = -1/5.
    a11, a12, a21, a22 = (Fraction(v) for v in (1, 2, 3, 1))
    b1 = Fraction(1)
    b2 = -b1 * a22 * (a21 - a11) / (a11 * (a12 - a22))  # solvability
    det = a11 * a22 - a12 * a21
    l1 = a22 * (a21 - a11) / det
    l2 = a11 * (a12 - a22) / det
    assert (l1, l2) == (Fraction(-2, 5), Fraction(-1, 5))
    m = as_matrix([[a11, a21], [a12, a22], [b1, b2]])
    out = solve_constrained(m, [-a11, -a22, 0])
    assert out.status == "unique"
    assert out.solution == (l1, l2)
    # independent check: the solution satisfies all three conditions exactly
    got = mat_vec(m, out.solution)
    assert got == (-a11, -a22, 0)


def test_nullspace_examples():
    assert nullspace(as_matrix([[1, 0], [0, 1]])) == []
    assert nullspace(as_matrix([[1, 1]])) == [(1, Fraction(-1))]


def test_nullspace_linsys2_under_substitution():
    # the 3x3 parameter system under a_ij = -2 a_jj with unit diagonal has
    # nullspace spanned by (1, -1, 1)
    a = [[1, -2, -2], [-2, 1, -2], [-2, -2, 1]]
    m = as_matrix(
        [
            [-a[0][2], a[0][1], a[1][0] + a[2][0]],
            [a[1][2], a[0][1] + a[2][1], a[1][0]],
            [a[0][2] + a[1][2], a[2][1], -a[2][0]],
        ]
    )
    ns = nullspace(m)
    assert ns == [(1, -1, 1)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 10**9))
def test_rank_nullity_and_solution_exactness(seed):
    rng = random.Random(seed)
    rows = rng.randint(1, 5)
    cols = rng.randint(1, 4)
    m = as_matrix(
        [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ]
    )
    r = rank(m)
    ns = nullspace(m)
    assert r + len(ns) == cols
    for v in ns:
        assert all(x == 0 for x in mat_vec(m, v))
        lead = next((x for x in v if x != 0), None)
        assert lead == 1  # normalization
    rhs = as_vector([rng.randint(-4, 4) for _ in range(rows)])
    out = solve_constrained(m, rhs)
    if out.status in ("unique", "underdetermined"):
        assert mat_vec(m, out.solution) == tuple(rhs)
    else:
        assert out.status == "infeasible"
        y = infeasibility_certificate(m, rhs)
        for j in range(cols):
            assert sum(y[i] * m[i][j] for i in range(rows)) == 0
        assert vec_dot(y, rhs) != 0


def test_solve_all_zero_matrix_nonzero_rhs_is_infeasible():
    m = as_matrix([[0, 0], [0, 0], [0, 0]])
    r = as_vector([0, 3, -1])
    out = solve_constrained(m, r)
    assert out.status == "infeasible"
    y = infeasibility_certificate(m, r)
    assert all(sum(y[i] * m[i][j] for i in range(3)) == 0 for j in range(2))
    assert vec_dot(y, r) != 0


def test_solve_consistent_rank_deficient_returns_nullspace_basis():
    # rank 1: every row is a multiple of (1, 2, -1); r lies in the column space
    m = as_matrix([[1, 2, -1], [2, 4, -2], [-3, -6, 3]])
    r = as_vector([2, 4, -6])
    out = solve_constrained(m, r)
    assert out.status == "underdetermined"
    assert mat_vec(m, out.solution) == tuple(r)
    assert out.basis == nullspace(m)
    assert len(out.basis) == 2
    for v in out.basis:
        assert all(x == 0 for x in mat_vec(m, v))


# Reference arithmetic: the Gauss-Jordan loop over Fractions that the
# fraction-free elimination replaced, and the results read off its rows.
# The reduced row echelon form is unique, so rank, nullspace,
# solve_constrained and infeasibility_certificate must reproduce these
# values, every entry a Fraction.


def _ref_rref(rows):
    rows = [list(row) for row in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _ref_basis(rows, pivots, ncols):
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -Fraction(rows[r][fc])
        lead = next(x for x in v if x != 0)
        basis.append(tuple(x / lead for x in v))
    return basis


def _ref_nullspace(m):
    if not m:
        return []
    rows, pivots = _ref_rref(m)
    return _ref_basis(rows, pivots, len(m[0]))


def _ref_solve(m, r):
    ncols = len(m[0]) if m else 0
    rows, pivots = _ref_rref([list(row) + [x] for row, x in zip(m, r)])
    if pivots and pivots[-1] == ncols:
        return SolveOutcome(status="infeasible")
    sol = [Fraction(0)] * ncols
    for k, pc in enumerate(pivots):
        sol[pc] = Fraction(rows[k][ncols])
    if len(pivots) == ncols:
        return SolveOutcome(status="unique", solution=tuple(sol))
    return SolveOutcome("underdetermined", tuple(sol), _ref_basis(rows, pivots, ncols))


def _check_against_reference(m, r):
    """rank, nullspace, solve_constrained and (when infeasible) the
    certificate of m and r against the reference, values and types."""
    snapshot = [list(row) for row in m]
    mq, rq = as_matrix(m), as_vector(r)  # the reference divides: Fractions
    if m and m[0]:
        assert rank(m) == len(_ref_rref(mq)[1])
    ns = nullspace(m)
    assert repr(ns) == repr(_ref_nullspace(mq))
    out = solve_constrained(m, r)
    assert repr(out) == repr(_ref_solve(mq, rq))
    vecs = list(ns) + list(out.basis) + ([out.solution] if out.solution else [])
    assert all(type(x) is Fraction for v in vecs for x in v)
    if out.status == "infeasible":
        left = _ref_nullspace(tuple(zip(*mq)) or ((Fraction(0),) * len(m),))
        want = next(y for y in left if sum(a * b for a, b in zip(y, rq)) != 0)
        assert repr(infeasibility_certificate(m, r)) == repr(want)
    assert [list(row) for row in m] == snapshot  # the input is not modified
    return out


def _sparse_matrix(rng, nrows, ncols, zero_share):
    """Random rational matrix with mixed denominators, some zero rows and
    columns, and (half the time) rows that combine earlier rows."""
    dead_rows = {i for i in range(nrows) if rng.random() < 0.15}
    dead_cols = {j for j in range(ncols) if rng.random() < 0.15}
    m = []
    for i in range(nrows):
        if i in dead_rows:
            m.append([Fraction(0)] * ncols)
        elif m and rng.random() < 0.5:
            # rank deficiency: a rational combination of two earlier rows
            u, v = rng.choice(m), rng.choice(m)
            a, b = Fraction(rng.randint(-5, 5), rng.randint(1, 7)), Fraction(rng.randint(-3, 3))
            m.append([a * x + b * y for x, y in zip(u, v)])
        else:
            m.append([
                Fraction(0) if j in dead_cols or rng.random() < zero_share
                else Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 4, 6, 9, 35)))
                for j in range(ncols)
            ])
    return m


@pytest.mark.parametrize(
    "shape", [(4, 2), (12, 4), (9, 9), (3, 7), (1, 5), (6, 1), (12, 3), (3, 3)]
)
def test_rref_matches_fraction_reference(shape):
    rng = random.Random(100 * shape[0] + shape[1])
    statuses = set()
    for trial in range(150):
        m = _sparse_matrix(rng, *shape, zero_share=rng.choice((0.0, 0.42, 0.7)))
        if rng.random() < 0.5:  # whole entries as ints, as on an integer view
            m = [[x.numerator if x.denominator == 1 else x for x in row] for row in m]
        if rng.random() < 0.5:  # a consistent right-hand side
            x = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(shape[1])]
            r = [sum(a * b for a, b in zip(row, x)) for row in m]
        else:
            r = [rng.choice((0, rng.randint(-4, 4), Fraction(rng.randint(-9, 9), 4)))
                 for _ in range(shape[0])]
        statuses.add(_check_against_reference(m, r).status)
    assert "infeasible" in statuses or shape[0] <= shape[1]


class _Unread:
    """An entry that fails when the elimination reads it."""

    @property
    def denominator(self):
        raise AssertionError("a row after the decided answer was read")


def test_rref_edge_matrices():
    F = Fraction
    cases = [
        [[F(0)] * 3 for _ in range(4)],  # all zero
        [[F(0), F(2, 3)], [F(0), F(-4, 9)]],  # zero column
        [[F(1, 2), F(1, 3)], [F(0), F(0)], [F(3), F(2)]],
        [[F(7, 5)]],
        [[0, F(1, 2)], [2, 0], [0, 0]],  # ints and Fractions mixed in a row
        [[1, 2, 3], [F(1, 3), F(2, 3), 1], [0, 0, 0], [1, 2, 3], [2, 4, 7]],  # duplicates
        [[0, 0, 5], [0, 3, 1], [2, 0, 0]],  # pivots found last column first
    ]
    for m in cases:
        for r in ([0] * len(m), [1] * len(m), list(range(len(m)))):
            _check_against_reference(m, r)
    assert nullspace([[0, F(1, 2)], [2, 0], [0, 0]]) == []
    assert nullspace([]) == [] and solve_constrained((), ()).status == "unique"

    # full column rank before the last row: the nullspace is {0} and the
    # rank is the column count, whatever follows
    poison = [_Unread()] * 2
    assert nullspace([[1, 2], [F(1, 2), 3], poison]) == []
    assert rank([[1, 2], [3, 4], poison]) == 2
    # ... but a solve still reads the rows after it, and an inconsistent one
    # decides
    out = solve_constrained([[1, 0], [0, 1], [1, 1], [2, 2]], [1, 2, 3, 7])
    assert out.status == "infeasible"
    # an inconsistent row decides a solve, whatever rows follow, even rows
    # that would be pivots
    out = solve_constrained([[1, 1, 0], [2, 2, 0], poison + [0], [0, 0, 1]], [1, 3, 0, 5])
    assert out.status == "infeasible"
    assert infeasibility_certificate([[1, 1, 0], [2, 2, 0], [0, 0, 1]], [1, 3, 5])
