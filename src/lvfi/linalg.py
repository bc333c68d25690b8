"""Exact small dense linear algebra over the rationals.

Everything here is an equality decision, never a tolerance: right
nullspace, and constrained solves of the overdetermined exponent systems the
rule catalog produces.  An infeasible system has a certificate, a left
null vector y of the matrix with y . r != 0, computed on demand by
``infeasibility_certificate``.

Every result comes from one fraction-free row reduction (after Bareiss,
Math. Comp. 22, 1968; here each row is kept primitive instead).
``_echelon`` inserts the rows one at a time as integers and stops once the
answer is decided: at full column rank for ``nullspace``, and for
``solve_constrained`` at the first row that reduces to (0, ..., 0 | r != 0),
whatever rows follow.  Once homogeneous rows alone reach full column rank,
a further row can only reduce to zero or to (0, ..., 0 | r), and r is its
own right-hand side times a nonzero integer, so ``_echelon`` reads that
off without eliminating (the shortcut; L5-8c's 12-row exponent solve puts
its homogeneous rows first, catalog3d._affine_rows).  Only then are the
kept rows back-eliminated (``_reduced``), and only the entries a caller
reads become Fractions.  Without an early stop the kept rows span the row
space, and the reduced row echelon form is unique, so every result equals
that of Gauss-Jordan elimination over Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .record import Record

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

_ZERO = Fraction(0)


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


def _echelon(rows, stop: int) -> dict[int, list[int]]:
    """Row echelon form of rows (ints or Fractions) as pivot column ->
    primitive integer row, its first nonzero entry at that column.  Each row
    is scaled to integers, reduced at the pivot columns so far and kept
    primitive; a zero row is dropped.  It stops at a pivot at column
    ``stop`` or later, or at a pivot in every column.

    Once the pivots cover every column before ``stop`` and each pivot row
    is zero from ``stop`` on (a homogeneous system of full column rank),
    reducing a further row changes only its columns before ``stop`` and
    scales its tail by a nonzero integer.  So the row reduces to zero when
    its tail is zero, and otherwise to (0, ..., 0 | its tail made
    primitive), which is kept without eliminating: the shortcut."""
    width = len(rows[0]) if rows else 0
    piv: dict[int, list[int]] = {}
    homogeneous = True  # every pivot row so far is zero from column stop on
    for row in rows:
        if homogeneous and len(piv) == stop:
            tail = row[stop:]
            c = next((stop + k for k, x in enumerate(tail) if x), None)
            if c is None:
                continue
            piv[c] = [0] * stop + list(primitive(tail))
            break
        if not all(type(x) is int for x in row):
            d = lcm(*(x.denominator for x in row))
            row = [x.numerator * (d // x.denominator) for x in row]
        for c in range(width):
            if row[c]:
                if c not in piv:
                    break
                row = _eliminate(row, piv[c], c)
        else:
            continue
        g = gcd(*row)
        piv[c] = row = [a // g for a in row] if g > 1 else row
        if c >= stop or len(piv) == width:
            break
        if homogeneous and any(row[stop:]):
            homogeneous = False
    return piv


def _eliminate(row, prow, c) -> list[int]:
    """An integer combination of row and prow, zero at column c."""
    pv, f = prow[c], row[c]
    g = gcd(pv, f)
    pv, f = pv // g, f // g
    return [pv * a - f * b for a, b in zip(row, prow)]


def _reduced(piv: dict[int, list[int]]) -> list[tuple[int, list[int]]]:
    """The echelon rows back-eliminated, as (pivot column, integer row) in
    pivot order: each row is zero at every other pivot column, so dividing
    it by its pivot gives the reduced row echelon form."""
    out: list[tuple[int, list[int]]] = []
    for c in sorted(piv, reverse=True):
        row = piv[c]
        for c2, row2 in out:
            if row[c2]:
                row = _eliminate(row, row2, c2)
        out.append((c, row))
    out.reverse()
    return out


def nullspace(m: Mat) -> list[Vec]:
    """Basis of the right nullspace, each vector scaled so its first nonzero
    component is 1."""
    if not m:
        return []
    ncols = len(m[0])
    piv = _echelon(m, ncols)
    return _basis(_reduced(piv), ncols) if len(piv) < ncols else []


def nullspace_candidates(m) -> list[Vec]:
    """Nullspace basis plus pairwise sums (covers guards that a single basis
    vector misses when the space is more than one-dimensional)."""
    basis = nullspace(tuple(tuple(r) for r in m))
    cands = list(basis)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            cands.append(tuple(a + b for a, b in zip(basis[i], basis[j])))
    return cands


def _basis(red, ncols: int) -> list[Vec]:
    """Right nullspace of the first ncols columns of _reduced rows.  For
    each free column fc the vector w is integer: w[fc] = the lcm of the
    pivots of the rows that reach fc, w[pc] = -row[fc] * (lcm / row[pc]);
    only its entries over its first nonzero one become Fractions."""
    pivots = {c for c, _ in red}
    basis: list[Vec] = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        scale = lcm(*(row[c] for c, row in red if row[fc]))
        w = [0] * ncols
        w[fc] = scale
        for c, row in red:
            if row[fc]:
                w[c] = -row[fc] * (scale // row[c])
        lead = next(x for x in w if x)
        basis.append(tuple(Fraction(x, lead) if x else _ZERO for x in w))
    return basis


class SolveOutcome(Record):
    """Result of an exact constrained solve of m @ l = r."""

    __slots__ = ("status", "solution", "basis")

    def __init__(self, status: str, solution: Optional[Vec] = None,
                 basis: Optional[list[Vec]] = None):
        self.status = status  # "unique" | "underdetermined" | "infeasible"
        self.solution = solution
        self.basis = [] if basis is None else basis


def solve_constrained(m: Mat, r) -> SolveOutcome:
    """Solve m @ l = r exactly.

    Consistent + full column rank -> unique solution; consistent but rank
    deficient -> particular solution plus nullspace basis; inconsistent ->
    infeasible.  One reduction of [m | r] decides all three: a pivot in the
    r column means inconsistency, and the reduction stops at the first row
    that gives one.  The entries may be ints or Fractions; the solution and
    basis are Fractions.
    """
    rvec = tuple(r)
    nrows = len(m)
    if len(rvec) != nrows:
        raise ValueError(f"rhs length {len(rvec)} != rows {nrows}")
    ncols = len(m[0]) if nrows else 0
    piv = _echelon([(*m[i], rvec[i]) for i in range(nrows)], ncols)
    if ncols in piv:
        return SolveOutcome(status="infeasible")
    red = _reduced(piv)
    sol = [_ZERO] * ncols
    for c, row in red:
        if row[ncols]:
            sol[c] = Fraction(row[ncols], row[c])
    status = "unique" if len(red) == ncols else "underdetermined"
    return SolveOutcome(status, tuple(sol), _basis(red, ncols))


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


def vec_dot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))
