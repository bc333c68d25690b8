import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvfi.linalg import (
    as_matrix,
    as_vector,
    infeasibility_certificate,
    mat_vec,
    nullspace,
    rank,
    solve_constrained,
    vec_dot,
)


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
