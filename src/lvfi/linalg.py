"""Exact small dense linear algebra over the rationals.

Everything here is an equality decision, never a tolerance: rank, right
nullspace, and constrained solves of the overdetermined exponent systems the
rule catalog produces.  An infeasible system has a certificate, a left
null vector y of the matrix with y . r != 0, computed on demand by
``infeasibility_certificate``.

Every result comes from one row reduction, ``_rref``, which is fraction-free
(the idea of Bareiss, Math. Comp. 22, 1968, which bounds growth by exact
division by the previous pivot; here each row is instead kept primitive):
it scales each row to integers by the lcm of its denominators, eliminates
by integer cross-multiplication, divides each new row by the gcd of its
entries, and builds Fractions only from the final rows.  Integer operations
need no gcd reduction per entry, which every Fraction update pays.  The output
equals that of Gauss-Jordan elimination over Fractions: each working row is
a nonzero multiple of the row that elimination would hold, so both choose
the same pivots, and the reduced row echelon form of a matrix is unique, so
the rows divided by their pivots are the same rows.  A one-column nullspace
needs no reduction: it is nonzero only for the zero column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

_ZERO = Fraction(0)


def as_matrix(rows) -> Mat:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def as_vector(xs) -> Vec:
    return tuple(Fraction(x) for x in xs)


def primitive(v) -> tuple[int, ...]:
    """v (ints or Fractions) scaled by one positive rational, the lcm of
    the denominators over the gcd of the numerators, to integers with no
    common factor; the zero vector gives integer zeros."""
    d = lcm(*(x.denominator for x in v))
    ints = [x.numerator * (d // x.denominator) for x in v]
    g = gcd(*ints)
    return tuple(a // g for a in ints) if g > 1 else tuple(ints)


def _rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of a rational matrix; returns (rows, pivot
    column list), every entry a Fraction.  The input is not modified.

    Fraction-free (see the module docstring): rows are scaled to integers,
    row i is replaced by pv * row_i - f * pivot_row and divided by the gcd
    of its entries, and only the final pivot rows are divided by their
    pivots.  The pivot is the first nonzero entry at or below the current
    row, as in Gauss-Jordan over the rationals.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    work = []
    for row in rows:
        d = lcm(*(x.denominator for x in row))
        work.append([x.numerator * (d // x.denominator) for x in row])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        prow = work[r]
        pv = prow[c]
        for i in range(nrows):
            row = work[i]
            f = row[c]
            if i != r and f:
                row = [pv * a - f * b for a, b in zip(row, prow)]
                g = gcd(*row)
                work[i] = [a // g for a in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    out = [
        [Fraction(x, row[pc]) if x else _ZERO for x in row]
        for row, pc in zip(work, pivots)
    ]
    out += [[_ZERO] * ncols for _ in range(nrows - r)]
    return out, pivots


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
    if len(m[0]) == 1:  # one column: a nullspace only when it is zero
        return [] if any(row[0] for row in m) else [(Fraction(1),)]
    rows, pivots = _rref([list(row) for row in m])
    return _basis(rows, pivots, len(m[0]))


def nullspace_candidates(m) -> list[Vec]:
    """Nullspace basis plus pairwise sums (covers guards that a single basis
    vector misses when the space is more than one-dimensional)."""
    basis = nullspace(tuple(tuple(r) for r in m))
    cands = list(basis)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            cands.append(tuple(a + b for a, b in zip(basis[i], basis[j])))
    return cands


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
    r column means inconsistency.  The entries may be ints or Fractions;
    the solution and basis are Fractions.
    """
    rvec = tuple(r)
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
