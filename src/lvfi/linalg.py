"""Exact small dense linear algebra over the rationals.

Everything here is an equality decision, never a tolerance: rank, right
nullspace, and constrained solves of the overdetermined exponent systems the
rule catalog produces.  An infeasible system has a certificate, a left
null vector y of the matrix with y . r != 0, computed on demand by
``infeasibility_certificate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def as_matrix(rows) -> Mat:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def as_vector(xs) -> Vec:
    return tuple(Fraction(x) for x in xs)


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot column list)."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
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


def rank(m: Mat) -> int:
    if not m or not m[0]:
        return 0
    rows = [list(row) for row in m]
    _, pivots = _rref(rows)
    return len(pivots)


def nullspace(m: Mat) -> list[Vec]:
    """Basis of the right nullspace, each vector scaled so its first nonzero
    component is 1."""
    if not m:
        return []
    rows, pivots = _rref([list(row) for row in m])
    return _basis(rows, pivots, len(m[0]))


def _basis(rows, pivots: list[int], ncols: int) -> list[Vec]:
    """Right nullspace of the first ncols columns of a reduced matrix."""
    basis: list[Vec] = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(_normalize(tuple(v)))
    return basis


def _normalize(v: Vec) -> Vec:
    lead = next((x for x in v if x != 0), None)
    if lead is None or lead == 1:
        return v
    return tuple(x / lead for x in v)


@dataclass
class SolveOutcome:
    """Result of an exact constrained solve of m @ l = r."""

    status: str  # "unique" | "underdetermined" | "infeasible"
    solution: Optional[Vec] = None
    basis: list[Vec] = field(default_factory=list)


def solve_constrained(m: Mat, r) -> SolveOutcome:
    """Solve m @ l = r exactly.

    Consistent + full column rank -> unique solution; consistent but rank
    deficient -> particular solution plus nullspace basis; inconsistent ->
    infeasible.  One reduction of [m | r] decides all three: a pivot in the
    r column means inconsistency.
    """
    rvec = as_vector(r)
    nrows = len(m)
    if len(rvec) != nrows:
        raise ValueError(f"rhs length {len(rvec)} != rows {nrows}")
    ncols = len(m[0]) if nrows else 0
    rows, pivots = _rref([list(m[i]) + [rvec[i]] for i in range(nrows)])
    if pivots and pivots[-1] == ncols:
        return SolveOutcome(status="infeasible")
    sol = [Fraction(0)] * ncols
    for k, pc in enumerate(pivots):
        sol[pc] = rows[k][ncols]
    if len(pivots) == ncols:
        return SolveOutcome(status="unique", solution=tuple(sol))
    return SolveOutcome(
        status="underdetermined",
        solution=tuple(sol),
        basis=_basis(rows, pivots, ncols),
    )


def infeasibility_certificate(m: Mat, r) -> Vec:
    """A left-null vector y of m (y @ m = 0) with y . r != 0, which proves
    m @ l = r has no solution.  Raises ValueError when the system is
    consistent, since then no such y exists."""
    rvec = as_vector(r)
    left_null = nullspace(tuple(zip(*m)) or ((Fraction(0),) * len(m),))
    y = next((y for y in left_null if vec_dot(y, rvec) != 0), None)
    if y is None:
        raise ValueError("m @ l = r is consistent: no infeasibility certificate")
    return y


def mat_vec(m: Mat, v: Vec) -> Vec:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def vec_dot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))
