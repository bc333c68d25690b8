"""The 3D rule catalog: both integrating-factor Ansatz families.

The constant matrix family (T1) forces unit exponents and its conditions do
not involve the constant terms at all, so those three rules apply to every
constant-term pattern.  The coordinate-weighted family (T2) splits by the zero
pattern of e; each rule records the applicability residuals, the parameter or
exponent solve, and guards, exactly as the case analysis dictates.

Printed closed forms are treated as claims: the integral is always rebuilt
from the Ansatz by exact potential reconstruction, and where transcribed, the
printed formula is compared against the construction and the outcome recorded
(several printed formulas are garbled; the exact solve is the arbiter).

The permutation engine covers all index-relabeled cases mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .catalog2d import _q
from .detection import (
    Candidate,
    Detection,
    Match,
    Rule,
    gradient_proportional,
    run_rules,
)
from .linalg import SolveOutcome, nullspace, solve_constrained
from .model import LVSystem, make_system
from .poly import GenPoly
from .potential import lie_genpoly

F = Fraction
ZERO3 = (F(0), F(0), F(0))


# -- term table and parameter solves (public operations) ----------------------


@dataclass(frozen=True)
class TermTable:
    """The bilinear combinations entering every T2 condition row."""

    B: tuple[Fraction, Fraction, Fraction]
    A: tuple[tuple[Fraction, Fraction, Fraction], ...]


def term_table(abg, s: LVSystem) -> TermTable:
    """B_k and A_ki from (alpha, beta, gamma) and the system coefficients."""
    if s.dim != 3:
        raise ValueError("term_table needs a 3D system")
    al, be, ga = (Fraction(v) for v in abg)
    b, A = s.b, s.A
    B = (
        b[0] * al - b[2] * ga,
        b[1] * al + b[2] * be,
        b[0] * be + b[1] * ga,
    )
    rows = (
        tuple(A[0][i] * al - A[2][i] * ga for i in range(3)),
        tuple(A[1][i] * al + A[2][i] * be for i in range(3)),
        tuple(A[0][i] * be + A[1][i] * ga for i in range(3)),
    )
    return TermTable(B=B, A=rows)


_ENTRY_ROWS = {
    # entry name -> coefficients of (alpha, beta, gamma)
    "B1": lambda b, A: (b[0], F(0), -b[2]),
    "B2": lambda b, A: (b[1], b[2], F(0)),
    "B3": lambda b, A: (F(0), b[0], b[1]),
}
for _i in range(3):
    _ENTRY_ROWS[f"A1{_i+1}"] = (
        lambda b, A, i=_i: (A[0][i], F(0), -A[2][i])
    )
    _ENTRY_ROWS[f"A2{_i+1}"] = (
        lambda b, A, i=_i: (A[1][i], A[2][i], F(0))
    )
    _ENTRY_ROWS[f"A3{_i+1}"] = (
        lambda b, A, i=_i: (F(0), A[0][i], A[1][i])
    )


def solve_abg(s: LVSystem, zero_entries, fixed: dict | None = None) -> list[tuple]:
    """Nullspace basis of (alpha, beta, gamma) making the named table entries
    vanish; `fixed` pins components, e.g. {"gamma": 0}."""
    if s.dim != 3:
        raise ValueError("solve_abg needs a 3D system")
    fixed = fixed or {}
    idx = {"alpha": 0, "beta": 1, "gamma": 2}
    free = [v for v in ("alpha", "beta", "gamma") if v not in fixed]
    rows = []
    for name in zero_entries:
        full = _ENTRY_ROWS[name](s.b, s.A)
        rows.append(tuple(full[idx[v]] for v in free))
    if not rows:
        rows = [tuple(F(0) for _ in free)]
    basis = nullspace(tuple(rows))
    out = []
    for v in basis:
        vec = [F(fixed.get(name, 0)) for name in ("alpha", "beta", "gamma")]
        for val, name in zip(v, free):
            vec[idx[name]] = val
        out.append(tuple(vec))
    return out


def _ns_candidates(rows) -> list[tuple]:
    """Nullspace basis plus pairwise sums (covers guards that a single basis
    vector misses when the space is more than one-dimensional)."""
    basis = nullspace(tuple(tuple(r) for r in rows))
    cands = list(basis)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            cands.append(tuple(a + b for a, b in zip(basis[i], basis[j])))
    return cands


def _l_candidates(out: SolveOutcome) -> list[tuple]:
    if out.status == "unique":
        return [out.solution]
    if out.status == "underdetermined":
        cands = [out.solution]
        for bvec in out.basis:
            cands.append(tuple(a + b for a, b in zip(out.solution, bvec)))
        return cands
    return []


def _gp(terms) -> GenPoly:
    out = GenPoly.zero(3)
    for t in terms:
        coeff, powers = t[0], t[1]
        logs = t[2] if len(t) > 2 else None
        out = out + GenPoly.term(3, coeff, powers, logs)
    return out


def _cmp_against(printed: GenPoly, s2: LVSystem, H2: GenPoly, what="formula") -> str:
    if gradient_proportional(printed, H2) is not None:
        return f"agrees: printed {what} proportional to constructed integral"
    if lie_genpoly(printed, s2).is_zero():
        return (
            f"deviates: printed {what} is a valid integral but not proportional "
            "to the Ansatz construction"
        )
    return (
        f"deviates: printed {what} fails the exact Lie-derivative check; "
        "oracle-derived coefficients used"
    )


# =============================================================================
# T1 rules (constant skew matrix, unit exponents; the conditions are e-free
# so these solutions persist for every constant-term pattern)
# =============================================================================


def _match_l2i(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    if (
        b[0] + b[1]
        or 2 * A[0][0] + A[1][0]
        or 2 * A[1][1] + A[0][1]
        or A[0][2]
        or A[1][2]
    ):
        return []
    abg = (F(1), F(0), F(0))
    return [
        Match(
            params={"alpha'": abg[0], "beta'": abg[1], "gamma'": abg[2]},
            ansatz=("3d-t1", abg, (F(1), F(1), F(1))),
        )
    ]


def _cmp_l2i(s2, m, H2):
    b, A, e = s2.b, s2.A, s2.e
    printed = _gp(
        [
            (b[0], (1, 1, 0)),
            (A[0][0], (2, 1, 0)),
            (-A[1][1], (1, 2, 0)),
            (e[0], (0, 1, 0)),
            (-e[1], (1, 0, 0)),
        ]
    )
    return _cmp_against(printed, s2, H2)


def _sample_l2i(rng) -> LVSystem:
    b1, a11, a22 = _q(rng), _q(rng, True), _q(rng, True)
    return make_system(
        b=(b1, -b1, _q(rng)),
        A=((a11, -2 * a22, 0), (-2 * a11, a22, 0), (_q(rng), _q(rng), _q(rng))),
        e=(_q(rng, True), _q(rng, True), _q(rng, True)),
    )


def _match_l2ii(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    conds = (
        b[0] + b[1],
        b[0] + b[2],
        2 * A[0][0] + A[1][0],
        2 * A[0][0] + A[2][0],
        2 * A[1][1] + A[0][1],
        2 * A[2][2] + A[0][2],
    )
    if any(conds):
        return []
    rows = [
        (A[0][2], -A[0][1]),
        (A[1][2], A[0][1] + A[2][1]),
        (A[0][2] + A[1][2], A[2][1]),
    ]
    out = []
    for v in _ns_candidates(rows):
        if v[0] == 0 or v[1] == 0:
            continue  # the one-parameter cases belong to the first rule
        abg = (v[0], v[1], F(0))
        out.append(
            Match(
                params={"alpha'": abg[0], "beta'": abg[1], "gamma'": abg[2]},
                ansatz=("3d-t1", abg, (F(1), F(1), F(1))),
            )
        )
    return out


def _cmp_l2ii(s2, m, H2):
    b, A, e = s2.b, s2.A, s2.e
    a11, a22, a33 = A[0][0], A[1][1], A[2][2]
    printed = _gp(
        [
            (-2 * b[0] * a33, (1, 0, 1)),
            (-2 * b[0] * a22, (1, 1, 0)),
            (-2 * a11 * a33, (2, 0, 1)),
            (2 * a11 * a22, (2, 1, 0)),
            (2 * a33 * a33, (1, 0, 2)),
            (2 * a22 * a22, (1, 2, 0)),
            (4 * a22 * a33, (1, 1, 1)),
            (2 * (e[2] * a33 + e[1] * a22), (1, 0, 0)),
            (-2 * e[0] * a33, (0, 0, 1)),
            (2 * e[0] * a22, (0, 1, 0)),
        ]
    )
    return _cmp_against(printed, s2, H2)


def _sample_l2ii(rng) -> LVSystem:
    a11, a22, a33 = (_q(rng, True) for _ in range(3))
    b1 = _q(rng)
    a12, a13 = -2 * a22, -2 * a33
    a23 = _q(rng)
    a32 = -a12 * (a13 + a23) / a13
    return make_system(
        b=(b1, -b1, -b1),
        A=((a11, a12, a13), (-2 * a11, a22, a23), (-2 * a11, a32, a33)),
        e=(_q(rng, True), _q(rng, True), _q(rng, True)),
    )


def _match_l2iii(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    if any(v != 0 for v in b):
        return []
    conds = []
    for i in range(3):
        for j in range(3):
            if i != j:
                conds.append(A[i][j] + 2 * A[j][j])
    if any(conds):
        return []
    rows = [
        (-A[0][2], A[0][1], A[1][0] + A[2][0]),
        (A[1][2], A[0][1] + A[2][1], A[1][0]),
        (A[0][2] + A[1][2], A[2][1], -A[2][0]),
    ]
    out = []
    for v in _ns_candidates(rows):
        if any(c == 0 for c in v):
            continue
        out.append(
            Match(
                params={"alpha'": v[0], "beta'": v[1], "gamma'": v[2]},
                ansatz=("3d-t1", v, (F(1), F(1), F(1))),
            )
        )
    return out


def _cmp_l2iii(s2, m, H2):
    A, e = s2.A, s2.e
    a11, a22, a33 = A[0][0], A[1][1], A[2][2]
    printed = _gp(
        [
            (a11 * a11 * a22, (2, 1, 0)),
            (-a11 * a11 * a33, (2, 0, 1)),
            (-a11 * a22 * a22, (1, 2, 0)),
            (a11 * a33 * a33, (1, 0, 2)),
            (a22 * a22 * a33, (0, 2, 1)),
            (-a22 * a33 * a33, (0, 1, 2)),
            (-a11 * a22 * e[1] + a11 * a33 * e[2], (1, 0, 0)),
            (a11 * a22 * e[0] - a22 * a33 * e[2], (0, 1, 0)),
            (a22 * a33 * e[1] - a11 * a33 * e[0], (0, 0, 1)),
        ]
    )
    return _cmp_against(printed, s2, H2)


def _sample_l2iii(rng) -> LVSystem:
    d = [_q(rng, True) for _ in range(3)]
    A = tuple(
        tuple(d[j] if i == j else -2 * d[j] for j in range(3)) for i in range(3)
    )
    return make_system(
        b=(0, 0, 0), A=A, e=(_q(rng, True), _q(rng, True), _q(rng, True))
    )


# =============================================================================
# T2 rules, pattern e1,e2 != 0, e3 = 0
# =============================================================================


def _match_l3_1(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    if (
        b[0] + b[1]
        or 2 * A[0][0] + A[1][0]
        or A[0][1] + 2 * A[1][1]
        or A[0][2]
        or A[1][2]
    ):
        return []
    return [
        Match(
            params={"alpha": F(1), "beta": F(0), "gamma": F(0)},
            ansatz=("3d-t2", (F(1), F(0), F(0)), (F(1), F(1), F(0))),
        )
    ]


def _sample_l3_1(rng) -> LVSystem:
    b1, a11, a22 = _q(rng), _q(rng, True), _q(rng, True)
    return make_system(
        b=(b1, -b1, _q(rng)),
        A=((a11, -2 * a22, 0), (-2 * a11, a22, 0), (_q(rng), _q(rng), _q(rng))),
        e=(_q(rng, True), _q(rng, True), 0),
    )


def _match_l3_2(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    conds = (
        b[0] + b[2],
        b[1] + b[2],
        A[0][0] - A[1][0],
        A[1][0] + A[2][0],
        A[0][1] - A[1][1],
        A[1][1] + A[2][1],
        A[0][2] + A[1][2] + 2 * A[2][2],
    )
    if any(conds) or A[0][2] == A[1][2]:
        return []
    return [
        Match(
            params={"alpha": F(1), "beta": F(1), "gamma": F(-1)},
            ansatz=("3d-t2", (F(1), F(1), F(-1)), (F(1), F(1), F(1))),
        )
    ]


def _cmp_l3_2(s2, m, H2):
    A, e = s2.A, s2.e
    printed = _gp(
        [
            (Fraction(A[0][2] - A[1][2], 2), (1, 1, 2)),
            (e[0], (0, 1, 1)),
            (-e[1], (1, 0, 1)),
        ]
    )
    return _cmp_against(printed, s2, H2)


def _sample_l3_2(rng) -> LVSystem:
    b3, a31, a32 = _q(rng), _q(rng), _q(rng)
    while True:
        a13, a23 = _q(rng), _q(rng)
        if a13 != a23:
            break
    a33 = -(a13 + a23) / 2
    return make_system(
        b=(-b3, -b3, b3),
        A=((-a31, -a32, a13), (-a31, -a32, a23), (a31, a32, a33)),
        e=(_q(rng, True), _q(rng, True), 0),
    )


def _match_l3_3(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    if b[0] - b[1] or any(A[0][i] - A[1][i] for i in range(3)):
        return []
    col = (b[2], A[2][0], A[2][1], A[2][2])
    if all(v == 0 for v in col):
        return []  # any exponent works; the trivial-row rule reports x3
    out = solve_constrained(
        tuple((v,) for v in col), (-b[0], -A[0][0], -A[0][1], -A[0][2])
    )
    if out.status != "unique":
        return []
    l3 = out.solution[0]
    return [
        Match(
            params={"l3": l3, "alpha": F(1), "beta": l3, "gamma": -l3},
            ansatz=("3d-t2", (F(1), l3, -l3), (F(1), F(1), l3)),
        )
    ]


def _cmp_l3_3(s2, m, H2):
    e = s2.e
    l3 = m.params["l3"]
    printed = _gp([(e[0], (0, 1, l3)), (-e[1], (1, 0, l3))])
    return _cmp_against(printed, s2, H2, what="formula (with exact-solved l3)")


def _sample_l3_3(rng) -> LVSystem:
    while True:
        row3 = (_q(rng), _q(rng), _q(rng), _q(rng))
        if any(v != 0 for v in row3):
            break
    l3 = _q(rng)
    b3, a31, a32, a33 = row3
    top = (-b3 * l3, -a31 * l3, -a32 * l3, -a33 * l3)
    return make_system(
        b=(top[0], top[0], b3),
        A=((top[1], top[2], top[3]), (top[1], top[2], top[3]), (a31, a32, a33)),
        e=(_q(rng, True), _q(rng, True), 0),
    )


# =============================================================================
# T2 rules, pattern e1 != 0, e2 = e3 = 0
# =============================================================================


def _match_l4_1(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    if b[0] or A[0][0] or A[0][1] or A[0][2]:
        return []
    out = []
    for v in _ns_candidates([(A[1][1], A[2][1]), (A[1][2], A[2][2])]):
        abg = (v[0], v[1], F(0))
        out.append(
            Match(
                params={"alpha": abg[0], "beta": abg[1], "gamma": F(0)},
                ansatz=("3d-t2", abg, (F(1), F(0), F(0))),
            )
        )
    return out


def _cmp_l4_1(s2, m, H2):
    b, A, e = s2.b, s2.A, s2.e
    al, be = m.params["alpha"], m.params["beta"]
    B2 = b[1] * al + b[2] * be
    A21 = A[1][0] * al + A[2][0] * be
    printed = _gp(
        [
            (-B2, (1, 0, 0)),
            (Fraction(-A21, 2), (2, 0, 0)),
            (al * e[0], (0, 0, 0), (0, 1, 0)),
            (be * e[0], (0, 0, 0), (0, 0, 1)),
        ]
    )
    return _cmp_against(printed, s2, H2)


def _sample_l4_1(rng) -> LVSystem:
    a22, a23, rho = _q(rng, True), _q(rng), _q(rng, True)
    return make_system(
        b=(0, _q(rng), _q(rng)),
        A=((0, 0, 0), (_q(rng), a22, a23), (_q(rng), rho * a22, rho * a23)),
        e=(_q(rng, True), 0, 0),
    )


def _match_l4_2(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    conds = (
        b[1],
        A[1][0],
        A[1][1],
        b[0] + b[2],
        A[0][0] + A[2][0],
        A[0][1] + A[2][1],
        A[0][2] + A[2][2],
    )
    if any(conds) or A[1][2] == 0:
        return []
    return [
        Match(
            params={"alpha": F(1), "beta": F(0), "gamma": F(-1)},
            ansatz=("3d-t2", (F(1), F(0), F(-1)), (F(1), F(0), F(0))),
        )
    ]


def _cmp_l4_2(s2, m, H2):
    A, e = s2.A, s2.e
    printed = _gp([(-A[1][2], (1, 0, 1)), (e[0], (0, 0, 0), (0, 1, 0))])
    return _cmp_against(printed, s2, H2)


def _sample_l4_2(rng) -> LVSystem:
    b1, a11, a12, a13, a23 = _q(rng), _q(rng), _q(rng), _q(rng), _q(rng, True)
    return make_system(
        b=(b1, 0, -b1),
        A=((a11, a12, a13), (0, 0, a23), (-a11, -a12, -a13)),
        e=(_q(rng, True), 0, 0),
    )


def _match_l4_3(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    rows = [(b[1], b[2]), (A[1][0], A[2][0]), (A[1][1], A[2][1]), (A[1][2], A[2][2])]
    out = []
    for v in _ns_candidates(rows):
        H = _gp([(v[0], (0, 0, 0), (0, 1, 0)), (v[1], (0, 0, 0), (0, 0, 1))])
        if H.is_zero():
            continue
        out.append(Match(params={"alpha": v[0], "beta": v[1]}, H_gen=H))
    return out


def _sample_l4_3(rng) -> LVSystem:
    lam = _q(rng, True)
    row3 = (_q(rng), _q(rng), _q(rng, True), _q(rng))
    return make_system(
        b=(_q(rng), lam * row3[0], row3[0]),
        A=(
            (_q(rng), _q(rng), _q(rng)),
            (lam * row3[1], lam * row3[2], lam * row3[3]),
            (row3[1], row3[2], row3[3]),
        ),
        e=(_q(rng, True), 0, 0),
    )


def _match_l4_4(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    conds = (b[0] + b[2], A[0][0] + A[2][0], A[0][1] + A[2][1], A[0][2] + A[2][2])
    if any(conds):
        return []
    out = []
    for v in _ns_candidates([(b[0], b[1]), (A[0][0], A[1][0]), (A[0][1], A[1][1])]):
        be, ga = v
        A33 = A[0][2] * be + A[1][2] * ga
        if A33 == 0:
            continue
        out.append(
            Match(
                params={"beta": be, "gamma": ga, "alpha": -ga},
                ansatz=("3d-t2", (-ga, be, ga), (F(1), F(0), F(0))),
            )
        )
    return out


def _cmp_l4_4(s2, m, H2):
    A, e = s2.A, s2.e
    be, ga = m.params["beta"], m.params["gamma"]
    A33 = A[0][2] * be + A[1][2] * ga
    printed = _gp(
        [
            (A33, (1, 0, 1)),
            (be * e[0], (0, 0, 0), (0, 0, 1)),
            (-ga * e[0], (0, 0, 0), (0, 1, 0)),
        ]
    )
    return _cmp_against(printed, s2, H2)


def _sample_l4_4(rng) -> LVSystem:
    while True:
        lam, b2, a21, a22, a13, a23 = (
            _q(rng, True),
            _q(rng),
            _q(rng),
            _q(rng),
            _q(rng),
            _q(rng),
        )
        if a13 - lam * a23 == 0:  # A33 with (beta, gamma) = (1, -lam)
            continue
        b1, a11, a12 = lam * b2, lam * a21, lam * a22
        return make_system(
            b=(b1, b2, -b1),
            A=((a11, a12, a13), (a21, a22, a23), (-a11, -a12, -a13)),
            e=(_q(rng, True), 0, 0),
        )


def _match_l4_5(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    conds = (
        b[0] + b[1],
        b[0] + b[2],
        A[0][0] + A[1][0],
        A[0][0] + A[2][0],
        A[0][1] + A[1][1],
        A[0][2] + A[2][2],
    )
    if any(conds):
        return []
    if A[0][1] + A[2][1] == 0 or A[0][2] + A[1][2] == 0:
        return []
    return [
        Match(
            params={"alpha": F(1), "beta": F(-1), "gamma": F(-1)},
            ansatz=("3d-t2", (F(1), F(-1), F(-1)), (F(1), F(0), F(0))),
        )
    ]


def _cmp_l4_5(s2, m, H2):
    A, e = s2.A, s2.e
    printed = _gp(
        [
            (A[0][2] + A[1][2], (0, 0, 1)),
            (-(A[0][1] + A[2][1]), (0, 1, 0)),
            (e[0], (0, 0, 0), (0, 0, 1)),
            (-e[0], (0, 0, 0), (0, 1, 0)),
        ]
    )
    return _cmp_against(printed, s2, H2)


def _sample_l4_5(rng) -> LVSystem:
    while True:
        b1, a11, a12, a13 = _q(rng), _q(rng), _q(rng), _q(rng)
        a23, a32 = _q(rng), _q(rng)
        if a12 + a32 == 0 or a13 + a23 == 0:
            continue
        return make_system(
            b=(b1, -b1, -b1),
            A=((a11, a12, a13), (-a11, -a12, a23), (-a11, a32, -a13)),
            e=(_q(rng, True), 0, 0),
        )


def _match_l4_6(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    conds = (b[1], A[1][0], A[1][1], b[0] + b[2], A[0][0] + A[2][0], A[0][1] + A[2][1])
    if any(conds):
        return []
    if A[1][2] == 0 or A[0][2] + A[2][2] == 0:
        return []
    l2 = -(A[0][2] + A[2][2]) / A[1][2]
    return [
        Match(
            params={"l2": l2, "alpha": F(1), "beta": F(0), "gamma": F(-1)},
            ansatz=("3d-t2", (F(1), F(0), F(-1)), (F(1), l2, F(0))),
        )
    ]


def _cmp_l4_6(s2, m, H2):
    A, e = s2.A, s2.e
    l2 = m.params["l2"]
    printed = _gp(
        [(-A[1][2], (1, l2, 1)), (e[0] / l2, (0, l2, 0))]
    )
    note = _cmp_against(printed, s2, H2)
    return note + " (printed conditions say b1=a21=a22=0; the oracle system requires b2=a21=a22=0)"


def _sample_l4_6(rng) -> LVSystem:
    while True:
        b1, a11, a12, a13, a33 = _q(rng), _q(rng), _q(rng), _q(rng), _q(rng)
        a23 = _q(rng, True)
        if a13 + a33 == 0:
            continue
        return make_system(
            b=(b1, 0, -b1),
            A=((a11, a12, a13), (0, 0, a23), (-a11, -a12, a33)),
            e=(_q(rng, True), 0, 0),
        )


def _match_l4_7(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    if A[0][1] or A[0][2]:
        return []
    m = (
        (b[1], b[2]),
        (A[1][0], A[2][0]),
        (A[1][1], A[2][1]),
        (A[1][2], A[2][2]),
    )
    out = solve_constrained(m, (-b[0], -2 * A[0][0], F(0), F(0)))
    matches = []
    for l2, l3 in _l_candidates(out):
        if l2 == 0 and l3 == 0:
            continue  # constant integral
        matches.append(
            Match(
                params={"l2": l2, "l3": l3},
                ansatz=("3d-t2", (l2, l3, F(0)), (F(1), l2, l3)),
            )
        )
    return matches


def _cmp_l4_7(s2, m, H2):
    b, A, e = s2.b, s2.A, s2.e
    l2, l3 = m.params["l2"], m.params["l3"]
    printed = _gp(
        [
            (b[0], (1, l2, l3)),
            (A[0][0], (2, l2, l3)),
            (e[0], (0, l2, l3)),
        ]
    )
    return _cmp_against(printed, s2, H2)


def _sample_l4_7(rng) -> LVSystem:
    while True:
        l2, l3 = _q(rng), _q(rng, True)
        if l2 == 0:
            continue
        a22, a23 = _q(rng, True), _q(rng)
        b2, b3, a21, a31 = _q(rng), _q(rng), _q(rng), _q(rng)
        a32 = -a22 * l2 / l3
        a33 = -a23 * l2 / l3
        b1 = -(b2 * l2 + b3 * l3)
        a11 = -(a21 * l2 + a31 * l3) / 2
        return make_system(
            b=(b1, b2, b3),
            A=((a11, 0, 0), (a21, a22, a23), (a31, a32, a33)),
            e=(_q(rng, True), 0, 0),
        )


def _match_l4_8(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    conds = (b[0] + b[2], A[0][0] + A[2][0], A[0][1] + A[2][1])
    if any(conds):
        return []
    if A[0][2] + A[2][2] == 0:
        return []
    out = []
    for v in _ns_candidates([(b[0], b[1]), (A[0][0], A[1][0]), (A[0][1], A[1][1])]):
        be, ga = v
        if ga == 0:
            continue
        A23 = -ga * A[1][2] + be * A[2][2]
        A33 = A[0][2] * be + A[1][2] * ga
        if A23 == 0 or A33 == 0:
            continue
        l2 = ga * (A[0][2] + A[2][2]) / A23
        l3 = -be * (A[0][2] + A[2][2]) / A23
        out.append(
            Match(
                params={"beta": be, "gamma": ga, "alpha": -ga, "l2": l2, "l3": l3},
                ansatz=("3d-t2", (-ga, be, ga), (F(1), l2, l3)),
            )
        )
    return out


def _cmp_l4_8(s2, m, H2):
    A, e = s2.A, s2.e
    l2, l3 = m.params["l2"], m.params["l3"]
    printed = _gp(
        [
            (A[0][2] + A[2][2], (1, l2, l3 + 1)),
            (e[0], (0, l2, l3)),
        ]
    )
    return _cmp_against(printed, s2, H2)


def _sample_l4_8(rng) -> LVSystem:
    while True:
        lam = _q(rng, True)
        b2, a21, a22 = _q(rng), _q(rng), _q(rng)
        a13, a23, a33 = _q(rng), _q(rng), _q(rng)
        if a13 + a33 == 0 or a13 - lam * a23 == 0 or lam * a23 + a33 == 0:
            continue
        b1, a11, a12 = lam * b2, lam * a21, lam * a22
        return make_system(
            b=(b1, b2, -b1),
            A=((a11, a12, a13), (a21, a22, a23), (-a11, -a12, a33)),
            e=(_q(rng, True), 0, 0),
        )


def _match_l4_9(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    conds = (b[0] + b[2], b[1] - b[2], A[0][0] + A[2][0], A[1][0] - A[2][0])
    if any(conds):
        return []
    g1 = A[0][1] + A[1][1]
    g2 = A[1][1] - A[2][1]
    g3 = A[0][2] + A[2][2]
    g4 = A[1][2] - A[2][2]
    if g1 == 0 or g2 == 0 or g3 == 0 or g4 == 0:
        return []
    if g3 * g2 - g1 * g4 != 0:
        return []
    l2 = -g1 / g2
    return [
        Match(
            params={"l2": l2, "l3": -l2, "alpha": F(1), "beta": F(-1), "gamma": F(-1)},
            ansatz=("3d-t2", (F(1), F(-1), F(-1)), (F(1), l2, -l2)),
        )
    ]


def _cmp_l4_9(s2, m, H2):
    A, e = s2.A, s2.e
    l2 = m.params["l2"]
    l3 = -l2
    if l3 == 0 or l3 == -1:
        return None
    printed = _gp(
        [
            (Fraction(A[0][1] + A[1][1], 1) / l3, (1, l2 + 1, l3)),
            (Fraction(A[0][2] + A[1][2], 1) / (l3 + 1), (1, l2, l3 + 1)),
            (e[0] / l3, (0, l2, l3)),
        ]
    )
    return _cmp_against(printed, s2, H2)


def _sample_l4_9(rng) -> LVSystem:
    while True:
        b3, a31 = _q(rng), _q(rng)
        a22, a32, a12 = _q(rng), _q(rng), _q(rng)
        if a22 == a32 or a12 + a22 == 0:
            continue
        a23, a33 = _q(rng), _q(rng)
        if a23 == a33:
            continue
        a13 = (a12 + a22) * (a23 - a33) / (a22 - a32) - a33
        return make_system(
            b=(-b3, b3, b3),
            A=((-a31, a12, a13), (a31, a22, a23), (a31, a32, a33)),
            e=(_q(rng, True), 0, 0),
        )


# =============================================================================
# T2 rules, pattern e = 0
# =============================================================================


def _match_l5_1(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    if A[0][0] or A[0][1] or A[0][2] or b[0] == 0:
        return []
    out = []
    for v in _ns_candidates([(A[1][1], A[2][1]), (A[1][2], A[2][2])]):
        abg = (v[0], v[1], F(0))
        out.append(
            Match(
                params={"alpha": v[0], "beta": v[1]},
                ansatz=("3d-t2", abg, (F(0), F(0), F(0))),
            )
        )
    return out


def _cmp_l5_1(s2, m, H2):
    b, A = s2.b, s2.A
    al, be = m.params["alpha"], m.params["beta"]
    printed = _gp(
        [
            (al * b[0], (0, 0, 0), (0, 1, 0)),
            (-al * b[1] - be * b[2], (0, 0, 0), (1, 0, 0)),
            (-al * A[1][0] - be * A[2][0], (1, 0, 0)),
            (be * b[0], (0, 0, 0), (0, 0, 1)),
        ]
    )
    return _cmp_against(printed, s2, H2)


def _sample_l5_1(rng) -> LVSystem:
    a22, a23, rho = _q(rng, True), _q(rng), _q(rng, True)
    return make_system(
        b=(_q(rng, True), _q(rng), _q(rng)),
        A=((0, 0, 0), (_q(rng), a22, a23), (_q(rng), rho * a22, rho * a23)),
        e=(0, 0, 0),
    )


def _match_l5_2(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    if b[0] or A[0][1] or A[0][2] or A[0][0] == 0:
        return []
    out = []
    for v in _ns_candidates([(A[1][1], A[2][1]), (A[1][2], A[2][2])]):
        abg = (v[0], v[1], F(0))
        out.append(
            Match(
                params={"alpha": v[0], "beta": v[1]},
                ansatz=("3d-t2", abg, (F(-1), F(0), F(0))),
            )
        )
    return out


def _cmp_l5_2(s2, m, H2):
    b, A = s2.b, s2.A
    al, be = m.params["alpha"], m.params["beta"]
    a11 = A[0][0]
    printed = _gp(
        [
            (al * b[1] + be * b[2], (-1, 0, 0)),
            (-al * A[1][0] - be * A[2][0], (0, 0, 0), (1, 0, 0)),
            (al * a11, (0, 0, 0), (0, 1, 0)),
            (be * a11, (0, 0, 0), (0, 0, 1)),
        ]
    )
    return _cmp_against(printed, s2, H2)


def _sample_l5_2(rng) -> LVSystem:
    a22, a23, rho = _q(rng, True), _q(rng), _q(rng, True)
    return make_system(
        b=(0, _q(rng), _q(rng)),
        A=((_q(rng, True), 0, 0), (_q(rng), a22, a23), (_q(rng), rho * a22, rho * a23)),
        e=(0, 0, 0),
    )


def _match_l5_3(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    if b[0] - b[1] or A[0][1] - A[1][1] or A[0][2] - A[1][2]:
        return []
    out = []
    for v in _ns_candidates([(b[0], b[2]), (A[0][2], A[2][2])]):
        al, be = v
        ga = -be
        A22 = A[1][1] * al + A[2][1] * be
        A11 = A[0][0] * al + A[2][0] * be
        A31 = be * (A[0][0] - A[1][0])
        if A22 == 0 or (A11 == 0 and A31 == 0):
            continue
        out.append(
            Match(
                params={"alpha": al, "beta": be, "gamma": ga},
                ansatz=("3d-t2", (al, be, ga), (F(-1), F(0), F(0))),
            )
        )
    return out


def _cmp_l5_3(s2, m, H2):
    A = s2.A
    al, be, ga = m.params["alpha"], m.params["beta"], m.params["gamma"]
    A31 = A[0][0] * be + A[1][0] * ga
    A11 = A[0][0] * al - A[2][0] * ga
    A21 = A[1][0] * al + A[2][0] * be
    A22 = A[1][1] * al + A[2][1] * be
    printed = _gp(
        [
            (A31, (0, 0, 0), (0, 0, 1)),
            (A11, (0, 0, 0), (0, 1, 0)),
            (-A21, (0, 0, 0), (1, 0, 0)),
            (A22, (-1, 1, 0)),
        ]
    )
    return _cmp_against(printed, s2, H2)


def _sample_l5_3(rng) -> LVSystem:
    while True:
        b1, a13, rho = _q(rng, True), _q(rng, True), _q(rng, True)
        a12, a11, a21, a31, a32 = (_q(rng) for _ in range(5))
        # (alpha, beta) = (-rho, 1) solves the two-row system
        A22 = -rho * a12 + a32
        A11 = -rho * a11 + a31
        A31 = a11 - a21
        if A22 == 0 or (A11 == 0 and A31 == 0):
            continue
        return make_system(
            b=(b1, b1, rho * b1),
            A=((a11, a12, a13), (a21, a12, a13), (a31, a32, rho * a13)),
            e=(0, 0, 0),
        )


def _match_l5_4(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    conds = (b[0] - b[1], b[0] - b[2], A[0][1] - A[1][1], A[0][2] - A[2][2])
    if any(conds):
        return []
    if A[0][0] == A[2][0] and A[0][0] == A[1][0]:
        return []
    if A[1][1] == A[2][1] or A[1][2] == A[2][2]:
        return []
    return [
        Match(
            params={"alpha": F(1), "beta": F(-1), "gamma": F(1)},
            ansatz=("3d-t2", (F(1), F(-1), F(1)), (F(-1), F(0), F(0))),
        )
    ]


def _cmp_l5_4(s2, m, H2):
    A = s2.A
    printed = _gp(
        [
            (-(A[0][0] - A[1][0]), (0, 0, 0), (0, 0, 1)),
            (A[0][0] - A[2][0], (0, 0, 0), (0, 1, 0)),
            (-(A[1][0] - A[2][0]), (0, 0, 0), (1, 0, 0)),
            (A[1][1] - A[2][1], (-1, 1, 0)),
            (-(A[0][2] - A[1][2]), (-1, 0, 1)),
        ]
    )
    return _cmp_against(printed, s2, H2)


def _sample_l5_4(rng) -> LVSystem:
    while True:
        b1, a12, a13 = _q(rng), _q(rng), _q(rng)
        a11, a21, a31 = _q(rng), _q(rng), _q(rng)
        if a11 == a31 and a11 == a21:
            continue
        a32 = _q(rng)
        if a32 == a12:
            continue
        a23 = _q(rng)
        if a23 == a13:
            continue
        return make_system(
            b=(b1, b1, b1),
            A=((a11, a12, a13), (a21, a12, a23), (a31, a32, a13)),
            e=(0, 0, 0),
        )


def _match_l5_5(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    rows = [(b[0], b[1]), (A[0][0], A[1][0]), (A[0][1], A[1][1]), (A[0][2], A[1][2])]
    out = []
    for v in _ns_candidates(rows):
        be, ga = v
        if be == 0 and ga == 0:
            continue
        out.append(
            Match(
                params={"beta": be, "gamma": ga},
                H_gen=GenPoly.term(3, 1, (be, ga, 0)),
            )
        )
    return out


def _sample_l5_5(rng) -> LVSystem:
    lam = _q(rng, True)
    row2 = (_q(rng), _q(rng, True), _q(rng), _q(rng))
    return make_system(
        b=(lam * row2[0], row2[0], _q(rng)),
        A=(
            (lam * row2[1], lam * row2[2], lam * row2[3]),
            (row2[1], row2[2], row2[3]),
            (_q(rng), _q(rng), _q(rng)),
        ),
        e=(0, 0, 0),
    )


def _match_l5_6(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    ns23 = _ns_candidates(
        [(b[1], b[2]), (A[1][0], A[2][0]), (A[1][1], A[2][1]), (A[1][2], A[2][2])]
    )
    ns12 = _ns_candidates(
        [(b[0], b[1]), (A[0][0], A[1][0]), (A[0][1], A[1][1]), (A[0][2], A[1][2])]
    )
    out = []
    for al, be in ns23:
        if be == 0:
            continue
        for bp, ga in ns12:
            if bp == 0:
                continue
            scale = be / bp
            gs = ga * scale
            exps = (be, gs + al, be)
            if all(v == 0 for v in exps):
                continue
            out.append(
                Match(
                    params={"alpha": al, "beta": be, "gamma": gs},
                    H_gen=GenPoly.term(3, 1, exps),
                )
            )
    return out


def _sample_l5_6(rng) -> LVSystem:
    lam1, lam2 = _q(rng, True), _q(rng, True)
    row3 = (_q(rng), _q(rng, True), _q(rng), _q(rng))
    row2 = tuple(lam2 * v for v in row3)
    row1 = tuple(lam1 * v for v in row2)
    return make_system(
        b=(row1[0], row2[0], row3[0]),
        A=(row1[1:], row2[1:], row3[1:]),
        e=(0, 0, 0),
    )


def _match_l5_7a(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    if b[1] - b[2] or A[1][0] - A[2][0]:
        return []
    out = []
    for v in _ns_candidates([(b[0], b[1]), (A[0][0], A[1][0]), (A[0][1], A[1][1])]):
        be, ga = v
        A33 = A[0][2] * be + A[1][2] * ga
        A13 = -A[0][2] * be - A[2][2] * ga
        A23 = be * (A[2][2] - A[1][2])
        A12 = -A[0][1] * be - A[2][1] * ga
        if A33 == 0 or A13 == 0 or A23 == 0 or A12 == 0:
            continue
        l1 = -A23 / A33
        l2 = A13 / A33
        out.append(
            Match(
                params={"beta": be, "gamma": ga, "alpha": -be, "l1": l1, "l2": l2},
                ansatz=("3d-t2", (-be, be, ga), (l1, l2, F(0))),
            )
        )
    return out


def _cmp_l5_7a(s2, m, H2):
    A = s2.A
    be, ga = m.params["beta"], m.params["gamma"]
    l2 = m.params["l2"]
    A33 = A[0][2] * be + A[1][2] * ga
    A13 = -A[0][2] * be - A[2][2] * ga
    printed_l2 = -A13 / A33
    if printed_l2 == l2:
        return "agrees: printed l2 formula matches exact solve"
    return (
        f"deviates: printed l2 = -A13/A33 = {printed_l2} but the exact solve "
        f"gives l2 = A13/A33 = {l2} (sign typo in the printed exponent)"
    )


def _sample_l5_7a(rng) -> LVSystem:
    while True:
        lam = _q(rng, True)
        b2, a21, a22 = _q(rng), _q(rng), _q(rng)
        a32, a13, a23, a33 = _q(rng), _q(rng), _q(rng), _q(rng)
        b1, a11, a12 = lam * b2, lam * a21, lam * a22
        be, ga = F(1), -lam
        A33 = a13 * be + a23 * ga
        A13 = -a13 * be - a33 * ga
        A23 = be * (a33 - a23)
        A12 = -a12 * be - a32 * ga
        if A33 == 0 or A13 == 0 or A23 == 0 or A12 == 0:
            continue
        return make_system(
            b=(b1, b2, b2),
            A=((a11, a12, a13), (a21, a22, a23), (a21, a32, a33)),
            e=(0, 0, 0),
        )


def _match_l5_7b(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    if A[2][0] or A[2][1] or b[2] == 0 or A[2][2] == 0:
        return []
    out = []
    for v in _ns_candidates([(b[0], b[1]), (A[0][0], A[1][0]), (A[0][1], A[1][1])]):
        be, ga = v
        A33 = A[0][2] * be + A[1][2] * ga
        if A33 == 0:
            continue
        l1 = -A[2][2] * be / A33
        l2 = -A[2][2] * ga / A33
        out.append(
            Match(
                params={"beta": be, "gamma": ga, "alpha": F(0), "l1": l1, "l2": l2},
                ansatz=("3d-t2", (F(0), be, ga), (l1, l2, F(0))),
            )
        )
    return out


def _sample_l5_7b(rng) -> LVSystem:
    while True:
        lam = _q(rng, True)
        b2, a21, a22 = _q(rng), _q(rng), _q(rng)
        a13, a23 = _q(rng), _q(rng)
        if a13 - lam * a23 == 0:
            continue
        return make_system(
            b=(lam * b2, b2, _q(rng, True)),
            A=(
                (lam * a21, lam * a22, a13),
                (a21, a22, a23),
                (0, 0, _q(rng, True)),
            ),
            e=(0, 0, 0),
        )


def _match_l5_7c(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    conds = (b[0] - b[1], b[0] - b[2], A[0][0] - A[1][0], A[0][1] - A[1][1])
    if any(conds):
        return []
    if A[0][0] == A[2][0] or A[0][1] == A[2][1]:
        return []
    if A[0][2] == A[2][2] or A[1][2] == A[2][2] or A[0][2] == A[1][2]:
        return []
    d = A[0][2] - A[1][2]
    l1 = (A[1][2] - A[2][2]) / d
    l2 = (A[2][2] - A[0][2]) / d
    return [
        Match(
            params={"l1": l1, "l2": l2, "alpha": F(1), "beta": F(-1), "gamma": F(1)},
            ansatz=("3d-t2", (F(1), F(-1), F(1)), (l1, l2, F(0))),
        )
    ]


def _cmp_l5_7c(s2, m, H2):
    A = s2.A
    l1, l2 = m.params["l1"], m.params["l2"]
    if l1 == -1 or l2 == 0:
        return None
    printed = _gp(
        [
            (Fraction(A[1][0] - A[2][0], 1) / (l1 + 1), (l1 + 1, l2, 0)),
            (Fraction(A[1][1] - A[2][1], 1) / l2, (l1, l2 + 1, 0)),
            (A[0][2] - A[1][2], (l1, l2, 1)),
        ]
    )
    return _cmp_against(printed, s2, H2)


def _sample_l5_7c(rng) -> LVSystem:
    while True:
        b1, a11, a12 = _q(rng), _q(rng), _q(rng)
        a31, a32 = _q(rng), _q(rng)
        if a31 == a11 or a32 == a12:
            continue
        a13, a23, a33 = _q(rng), _q(rng), _q(rng)
        if a13 == a33 or a23 == a33 or a13 == a23:
            continue
        return make_system(
            b=(b1, b1, b1),
            A=((a11, a12, a13), (a11, a12, a23), (a31, a32, a33)),
            e=(0, 0, 0),
        )


def _match_l5_7d(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    conds = (
        b[0] + b[1],
        b[0] - b[2],
        A[0][0] + A[1][0],
        A[0][1] + A[1][1],
        A[0][1] - A[2][1],
    )
    if any(conds):
        return []
    d = A[0][2] + A[1][2]
    if d == 0:
        return []
    l1 = -(A[1][2] + A[2][2]) / d
    l2 = (A[0][2] - A[2][2]) / d
    return [
        Match(
            params={"l1": l1, "l2": l2, "alpha": F(1), "beta": F(1), "gamma": F(1)},
            ansatz=("3d-t2", (F(1), F(1), F(1)), (l1, l2, F(0))),
        )
    ]


def _cmp_l5_7d(s2, m, H2):
    A = s2.A
    l2 = m.params["l2"]
    printed_l2 = -(A[2][2] - A[0][2]) * (A[0][2] + A[1][2])
    if printed_l2 == l2:
        return "agrees: printed l2 formula matches exact solve"
    return (
        f"deviates: printed l2 = -(a33-a13)(a13+a23) = {printed_l2} but the "
        f"exact solve gives l2 = -(a33-a13)/(a13+a23) = {l2} "
        "(division missing in the printed formula)"
    )


def _sample_l5_7d(rng) -> LVSystem:
    while True:
        b1, a11, a12 = _q(rng), _q(rng), _q(rng)
        a13, a23 = _q(rng), _q(rng)
        if a13 + a23 == 0:
            continue
        return make_system(
            b=(b1, -b1, b1),
            A=((a11, a12, a13), (-a11, -a12, a23), (_q(rng), a12, _q(rng))),
            e=(0, 0, 0),
        )


def _match_l5_8a(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    if A[0][1] or A[0][2]:
        return []
    if A[1][1] * A[2][2] - A[2][1] * A[1][2] != 0:
        return []
    if b[0] == 0 and A[0][0] == 0:
        return []
    m = (
        (b[0], b[1], b[2]),
        (A[0][0], A[1][0], A[2][0]),
        (F(0), A[1][1], A[2][1]),
        (F(0), A[1][2], A[2][2]),
    )
    out = solve_constrained(m, (F(0), -A[0][0], F(0), F(0)))
    matches = []
    for l1, l2, l3 in _l_candidates(out):
        if l2 == 0 and l3 == 0 and (b[0] == 0 or l1 == 0):
            continue
        matches.append(
            Match(
                params={"l1": l1, "l2": l2, "l3": l3},
                ansatz=("3d-t2", (l2, l3, F(0)), (l1, l2, l3)),
            )
        )
    return matches


def _cmp_l5_8a(s2, m, H2):
    b, A = s2.b, s2.A
    l1, l2, l3 = m.params["l1"], m.params["l2"], m.params["l3"]
    printed = _gp([(b[0], (l1, l2, l3)), (A[0][0], (l1 + 1, l2, l3))])
    base = _cmp_against(printed, s2, H2)
    # printed exponent formulas l2 = -b1*alpha/B2, l3 = b1*beta/B2 with
    # (alpha, beta) solving A22 = A23 = 0
    ab = _ns_candidates([(A[1][1], A[2][1]), (A[1][2], A[2][2])])
    note = ""
    if ab:
        al, be = ab[0]
        B2 = b[1] * al + b[2] * be
        if B2 != 0:
            pl2, pl3 = -b[0] * al / B2, b[0] * be / B2
            if (pl2, pl3) == (l2, l3):
                note = "; printed l2,l3 formulas match the exact solve"
            else:
                note = (
                    f"; printed l2,l3 formulas give ({pl2},{pl3}) vs exact "
                    f"({l2},{l3}) - scale/sign garbled in print"
                )
    return base + note


def _sample_l5_8a(rng) -> LVSystem:
    while True:
        rho, c = _q(rng, True), _q(rng, True)
        a22, a23 = _q(rng, True), _q(rng)
        l2, l3 = -c * rho, c
        l1 = _q(rng, True)
        b2, b3, a21, a31 = _q(rng), _q(rng), _q(rng), _q(rng)
        b1 = -(l2 * b2 + l3 * b3) / l1
        if l1 == -1:
            continue
        a11 = -(a21 * l2 + a31 * l3) / (l1 + 1)
        if b1 == 0 and a11 == 0:
            continue
        return make_system(
            b=(b1, b2, b3),
            A=((a11, 0, 0), (a21, a22, a23), (a31, rho * a22, rho * a23)),
            e=(0, 0, 0),
        )


def _match_l5_8b(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    if b[0] or A[0][0] or b[1] - b[2] or A[1][0] - A[2][0]:
        return []
    if A[0][2] == 0 or A[1][2] == 0:
        return []
    g2 = A[1][1] - A[2][1]
    g4 = A[1][2] - A[2][2]
    if g2 == 0 or g4 == 0:
        return []
    det = A[0][1] * g4 - A[0][2] * g2
    if det == 0:
        return []
    out = solve_constrained(
        ((A[0][1], g2), (A[0][2], g4)), (-g2, F(0))
    )
    if out.status != "unique":
        return []
    l1, l2 = out.solution
    l3 = -1 - l2
    return [
        Match(
            params={"l1": l1, "l2": l2, "l3": l3, "alpha": F(-1), "beta": F(1), "gamma": F(0)},
            ansatz=("3d-t2", (F(-1), F(1), F(0)), (l1, l2, l3)),
        )
    ]


def _cmp_l5_8b(s2, m, H2):
    A = s2.A
    l2 = m.params["l2"]
    den = -A[0][1] * (A[1][2] - A[2][2]) + A[0][2] * (A[1][1] - A[2][1])
    printed_l2 = A[0][1] * (A[1][2] - A[2][2]) / den
    if printed_l2 == l2:
        return "agrees: printed l2 formula matches exact solve"
    return (
        f"deviates: printed l2 formula gives {printed_l2}, which is the exact "
        f"l3 = {m.params['l3']}; solved l2 = {l2} (l2/l3 swapped in print)"
    )


def _sample_l5_8b(rng) -> LVSystem:
    while True:
        b2, a21 = _q(rng), _q(rng)
        a12, a13 = _q(rng, True), _q(rng, True)
        a22, a32 = _q(rng), _q(rng)
        a23, a33 = _q(rng, True), _q(rng)
        if a22 == a32 or a23 == a33:
            continue
        if a12 * (a23 - a33) - a13 * (a22 - a32) == 0:
            continue
        return make_system(
            b=(0, b2, b2),
            A=((0, a12, a13), (a21, a22, a23), (a21, a32, a33)),
            e=(0, 0, 0),
        )


def _8c_rows(s: LVSystem):
    t = term_table((F(1), F(1), F(1)), s)
    B1, B2, B3 = t.B
    A1, A2, A3 = t.A
    rows = [
        (B1, B2, F(0)),
        (B3, F(0), B2),
        (F(0), B3, -B1),
        (A1[2], A2[2], F(0)),
        (A3[1], F(0), A2[1]),
        (F(0), A3[0], -A1[0]),
        (A1[0], A2[0], F(0)),
        (A1[1], A2[1], F(0)),
        (A3[0], F(0), A2[0]),
        (A3[2], F(0), A2[2]),
        (F(0), A3[1], -A1[1]),
        (F(0), A3[2], -A1[2]),
    ]
    rhs = (
        F(0),
        F(0),
        F(0),
        F(0),
        F(0),
        F(0),
        -A1[0],
        -A2[1],
        -A3[0],
        -A2[2],
        -A3[1],
        A1[2],
    )
    return rows, rhs


def _match_l5_8c(s: LVSystem) -> list[Match]:
    rows, rhs = _8c_rows(s)
    out = solve_constrained(tuple(rows), rhs)
    matches = []
    for l in _l_candidates(out):
        matches.append(
            Match(
                params={"l1": l[0], "l2": l[1], "l3": l[2], "alpha": F(1), "beta": F(1), "gamma": F(1)},
                ansatz=("3d-t2", (F(1), F(1), F(1)), l),
            )
        )
    return matches


def _cmp_l5_8c(s2, m, H2):
    t = term_table((F(1), F(1), F(1)), s2)
    A1, A2, A3 = t.A
    l1, l2, l3 = m.params["l1"], m.params["l2"], m.params["l3"]
    d12 = A1[0] * A2[1] - A2[0] * A1[1]
    d3 = A3[0] * A2[2] - A2[0] * A3[2]
    parts = []
    if d12 != 0:
        p1 = A2[1] * (A2[0] - A1[0]) / d12
        p2 = A1[0] * (A1[1] - A2[1]) / d12
        parts.append(
            "printed l1,l2 formulas "
            + ("match" if (p1, p2) == (l1, l2) else f"give ({p1},{p2}) vs exact ({l1},{l2})")
        )
    if d3 != 0:
        p3 = A3[0] * (A3[2] - A2[2]) / d3
        parts.append(
            "printed l3 formula "
            + ("matches" if p3 == l3 else f"gives {p3} vs exact {l3}")
        )
    if not parts:
        return "printed closed forms undefined here (zero denominators); exact solve used"
    joined = "; ".join(parts)
    if "vs exact" in joined:
        return "deviates: " + joined + " (fragmented conditions in print; exact solve used)"
    return "agrees: " + joined


def _sample_l5_8c(rng) -> LVSystem:
    from .linalg import nullspace as _ns

    while True:
        l1, l2, l3 = _q(rng), _q(rng), _q(rng)
        if len({l1, l2, l3}) < 3 or 0 in (l1, l2, l3):
            continue
        # conditions are linear in the 12 coefficients for fixed exponents
        rows = [
            # b-rows: (b1, b2, b3)
            (l1, l2, l2 - l1),
            (l1, l1 + l3, l3),
            (l2 - l3, l2, l3),
        ]
        arows = [
            # each: coefficients of (a11..a13, a21..a23, a31..a33)
            (0, 0, l1, 0, 0, l2, 0, 0, l2 - l1),
            (0, l1, 0, 0, l1 + l3, 0, 0, l3, 0),
            (l2 - l3, 0, 0, l2, 0, 0, l3, 0, 0),
            (l1 + 1, 0, 0, l2, 0, 0, l2 - l1 - 1, 0, 0),
            (0, l1, 0, 0, l2 + 1, 0, 0, l2 + 1 - l1, 0),
            (l1 + 1, 0, 0, l1 + 1 + l3, 0, 0, l3, 0, 0),
            (0, 0, l1, 0, 0, l1 + l3 + 1, 0, 0, l3 + 1),
            (0, l2 + 1 - l3, 0, 0, l2 + 1, 0, 0, l3, 0),
            (0, 0, l2 - l3 - 1, 0, 0, l2, 0, 0, l3 + 1),
        ]
        bbasis = _ns(tuple(tuple(F(v) for v in r) for r in rows))
        abasis = _ns(tuple(tuple(F(v) for v in r) for r in arows))
        if not abasis:
            continue
        bvec = [F(0)] * 3
        for v in bbasis:
            c = _q(rng)
            bvec = [x + c * y for x, y in zip(bvec, v)]
        avec = [F(0)] * 9
        for v in abasis:
            c = _q(rng)
            avec = [x + c * y for x, y in zip(avec, v)]
        if all(v == 0 for v in avec) and all(v == 0 for v in bvec):
            continue
        s = make_system(
            b=tuple(bvec),
            A=(tuple(avec[0:3]), tuple(avec[3:6]), tuple(avec[6:9])),
            e=(0, 0, 0),
        )
        # keep only instances where the rule produces a nonconstant integral
        from .potential import gradient_targets_3d, normalize_for_output, potential

        for m2 in _match_l5_8c(s):
            lsol = (m2.params["l1"], m2.params["l2"], m2.params["l3"])
            try:
                H = potential(gradient_targets_3d(s, "3d-t2", (F(1), F(1), F(1)), lsol))
            except Exception:
                continue
            if not normalize_for_output(H).is_zero():
                return s


def _match_triv3(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    if b[2] == 0 and all(A[2][j] == 0 for j in range(3)):
        return [Match(params={}, H_gen=GenPoly.term(3, 1, (0, 0, 1)))]
    return []


def _sample_triv3(rng) -> LVSystem:
    return make_system(
        b=(_q(rng), _q(rng), 0),
        A=((_q(rng), _q(rng), _q(rng)), (_q(rng), _q(rng), _q(rng)), (0, 0, 0)),
        e=(_q(rng), _q(rng), 0),
    )


# =============================================================================
# registry
# =============================================================================

RULES_3D: list[Rule] = [
    Rule(
        id="L2-i",
        citation="3D T1 Ansatz, case alpha' != 0; conditions e-free",
        dim=3,
        pattern=None,
        match=_match_l2i,
        residuals=["b1+b2", "2*a11+a21", "2*a22+a12", "a13", "a23"],
        guards=["alpha' != 0"],
        sample=_sample_l2i,
        compare_printed=_cmp_l2i,
    ),
    Rule(
        id="L2-ii",
        citation="3D T1 Ansatz, case alpha',beta' != 0",
        dim=3,
        pattern=None,
        match=_match_l2ii,
        residuals=[
            "b1+b2",
            "b1+b3",
            "2*a11+a21",
            "2*a11+a31",
            "2*a22+a12",
            "2*a33+a13",
            "a12*a13 + a12*a23 + a13*a32",
        ],
        guards=["alpha' != 0", "beta' != 0"],
        sample=_sample_l2ii,
        compare_printed=_cmp_l2ii,
        notes=["printed formula has sign typos on the x1^2*x2 and x2 terms"],
    ),
    Rule(
        id="L2-iii",
        citation="3D T1 Ansatz, case alpha',beta',gamma' != 0",
        dim=3,
        pattern=None,
        match=_match_l2iii,
        residuals=["b1", "b2", "b3", "a_ij + 2*a_jj (i != j)"],
        guards=["alpha', beta', gamma' != 0"],
        sample=_sample_l2iii,
        compare_printed=_cmp_l2iii,
    ),
    Rule(
        id="L3-1",
        citation="3D T2, e1,e2 != 0, e3 = 0, item 1 (2D-embedded integral)",
        dim=3,
        pattern=(True, True, False),
        match=_match_l3_1,
        residuals=["b1+b2", "2*a11+a21", "a12+2*a22", "a13", "a23"],
        guards=[],
        sample=_sample_l3_1,
        compare_printed=_cmp_l2i,
    ),
    Rule(
        id="L3-2",
        citation="3D T2, e1,e2 != 0, e3 = 0, item 2",
        dim=3,
        pattern=(True, True, False),
        match=_match_l3_2,
        residuals=[
            "b1+b3",
            "b2+b3",
            "a11-a21",
            "a21+a31",
            "a12-a22",
            "a22+a32",
            "a13+a23+2*a33",
        ],
        guards=["a13-a23 != 0"],
        sample=_sample_l3_2,
        compare_printed=_cmp_l3_2,
        notes=[
            "printed condition a12-a32=0 deviates: the oracle system requires "
            "a12-a22=0 (with a22+a32=0)"
        ],
    ),
    Rule(
        id="L3-3",
        citation="3D T2, e1,e2 != 0, e3 = 0, item 3",
        dim=3,
        pattern=(True, True, False),
        match=_match_l3_3,
        residuals=["b1-b2", "a1i-a2i (i=1,2,3)", "b3*a1i - b1*a3i (i=1,2,3)"],
        guards=["(b3, a31, a32, a33) != 0"],
        sample=_sample_l3_3,
        compare_printed=_cmp_l3_3,
        notes=[
            "printed defining equation b1 - b3*l3 = 0 has a sign typo; the "
            "exact solve uses b1 + b3*l3 = 0, consistent with the printed "
            "cross-conditions b3*a1i - b1*a3i = 0"
        ],
    ),
    Rule(
        id="L4-1",
        citation="3D T2, e1 != 0, e2 = e3 = 0, item 1",
        dim=3,
        pattern=(True, False, False),
        match=_match_l4_1,
        residuals=["b1", "a11", "a12", "a13", "a22*a33 - a23*a32"],
        guards=[],
        sample=_sample_l4_1,
        compare_printed=_cmp_l4_1,
    ),
    Rule(
        id="L4-2",
        citation="3D T2, e1 != 0, e2 = e3 = 0, item 2",
        dim=3,
        pattern=(True, False, False),
        match=_match_l4_2,
        residuals=["b2", "a21", "a22", "b1+b3", "a11+a31", "a12+a32", "a13+a33"],
        guards=["a23 != 0"],
        sample=_sample_l4_2,
        compare_printed=_cmp_l4_2,
    ),
    Rule(
        id="L4-3",
        citation="3D T2, e1 != 0, e2 = e3 = 0, item 3 (x1-free log integral)",
        dim=3,
        pattern=(True, False, False),
        match=_match_l4_3,
        residuals=["(b2,a21,a22,a23) proportional to (b3,a31,a32,a33)"],
        guards=[],
        sample=_sample_l4_3,
        notes=["integral is stated directly; it is not a T2 gradient"],
    ),
    Rule(
        id="L4-4",
        citation="3D T2, e1 != 0, e2 = e3 = 0, item 4",
        dim=3,
        pattern=(True, False, False),
        match=_match_l4_4,
        residuals=["b1+b3", "a11+a31", "a12+a32", "a13+a33", "(b1,a11,a12) prop (b2,a21,a22)"],
        guards=["A33 != 0"],
        sample=_sample_l4_4,
        compare_printed=_cmp_l4_4,
    ),
    Rule(
        id="L4-5",
        citation="3D T2, e1 != 0, e2 = e3 = 0, item 5",
        dim=3,
        pattern=(True, False, False),
        match=_match_l4_5,
        residuals=["b1+b2", "b1+b3", "a11+a21", "a11+a31", "a12+a22", "a13+a33"],
        guards=["a12+a32 != 0", "a13+a23 != 0"],
        sample=_sample_l4_5,
        compare_printed=_cmp_l4_5,
        notes=["printed formula drops the x1 factors of the quadratic terms"],
    ),
    Rule(
        id="L4-6",
        citation="3D T2, e1 != 0, e2 = e3 = 0, item 6",
        dim=3,
        pattern=(True, False, False),
        match=_match_l4_6,
        residuals=["b2", "a21", "a22", "b1+b3", "a11+a31", "a12+a32"],
        guards=["a23 != 0", "a13+a33 != 0"],
        sample=_sample_l4_6,
        compare_printed=_cmp_l4_6,
        notes=["printed condition b1=0 deviates: the oracle system requires b2=0"],
    ),
    Rule(
        id="L4-7",
        citation="3D T2, e1 != 0, e2 = e3 = 0, item 7",
        dim=3,
        pattern=(True, False, False),
        match=_match_l4_7,
        residuals=[
            "a12",
            "a13",
            "a22*(-b1*a31+2*b3*a11) + a32*(-2*b2*a11+b1*a21)",
            "a23*(-b1*a31+2*b3*a11) + a33*(-2*b2*a11+b1*a21)",
        ],
        guards=["(l2, l3) != (0, 0)"],
        sample=_sample_l4_7,
        compare_printed=_cmp_l4_7,
    ),
    Rule(
        id="L4-8",
        citation="3D T2, e1 != 0, e2 = e3 = 0, item 8",
        dim=3,
        pattern=(True, False, False),
        match=_match_l4_8,
        residuals=["b1+b3", "a11+a31", "a12+a32", "(b1,a11,a12) prop (b2,a21,a22)"],
        guards=["a13+a33 != 0", "A23 != 0", "A33 != 0", "gamma != 0"],
        sample=_sample_l4_8,
        compare_printed=_cmp_l4_8,
    ),
    Rule(
        id="L4-9",
        citation="3D T2, e1 != 0, e2 = e3 = 0, item 9",
        dim=3,
        pattern=(True, False, False),
        match=_match_l4_9,
        residuals=[
            "b1+b3",
            "b2-b3",
            "a11+a31",
            "a21-a31",
            "(a13+a33)(a22-a32) - (a12+a22)(a23-a33)",
        ],
        guards=["a12+a22 != 0", "a22-a32 != 0", "a13+a33 != 0", "a23-a33 != 0"],
        sample=_sample_l4_9,
        compare_printed=_cmp_l4_9,
    ),
    Rule(
        id="L5-1",
        citation="3D T2, e = 0, item 1",
        dim=3,
        pattern=(False, False, False),
        match=_match_l5_1,
        residuals=["a11", "a12", "a13", "a22*a33 - a32*a23"],
        guards=["b1 != 0"],
        sample=_sample_l5_1,
        compare_printed=_cmp_l5_1,
    ),
    Rule(
        id="L5-2",
        citation="3D T2, e = 0, item 2",
        dim=3,
        pattern=(False, False, False),
        match=_match_l5_2,
        residuals=["b1", "a12", "a13", "a22*a33 - a32*a23"],
        guards=["a11 != 0"],
        sample=_sample_l5_2,
        compare_printed=_cmp_l5_2,
    ),
    Rule(
        id="L5-3",
        citation="3D T2, e = 0, item 3",
        dim=3,
        pattern=(False, False, False),
        match=_match_l5_3,
        residuals=["b1-b2", "a12-a22", "a13-a23", "b1*a33 - b3*a13"],
        guards=["A22 != 0", "(A11, A31) != (0, 0)"],
        sample=_sample_l5_3,
        compare_printed=_cmp_l5_3,
    ),
    Rule(
        id="L5-4",
        citation="3D T2, e = 0, item 4",
        dim=3,
        pattern=(False, False, False),
        match=_match_l5_4,
        residuals=["b1-b2", "b1-b3", "a12-a22", "a13-a33"],
        guards=["(a11-a31, a11-a21) != (0,0)", "a22-a32 != 0", "a23-a33 != 0"],
        sample=_sample_l5_4,
        compare_printed=_cmp_l5_4,
    ),
    Rule(
        id="L5-5",
        citation="3D T2, e = 0, item 5 (monomial integral)",
        dim=3,
        pattern=(False, False, False),
        match=_match_l5_5,
        residuals=["(b1,a11,a12,a13) proportional to (b2,a21,a22,a23)"],
        guards=[],
        sample=_sample_l5_5,
    ),
    Rule(
        id="L5-6",
        citation="3D T2, e = 0, item 6 (monomial integral, doubly proportional rows)",
        dim=3,
        pattern=(False, False, False),
        match=_match_l5_6,
        residuals=["rows 1,2 proportional", "rows 2,3 proportional"],
        guards=["beta != 0 in both solves"],
        sample=_sample_l5_6,
    ),
    Rule(
        id="L5-7a",
        citation="3D T2, e = 0, item 7a",
        dim=3,
        pattern=(False, False, False),
        match=_match_l5_7a,
        residuals=["b2-b3", "a21-a31", "(b1,a11,a12) prop (b2,a21,a22)"],
        guards=["A33 != 0", "A13 != 0", "A23 != 0", "A12 != 0"],
        sample=_sample_l5_7a,
        compare_printed=_cmp_l5_7a,
        notes=["printed l2 has a sign typo (exact solve gives +A13/A33)"],
    ),
    Rule(
        id="L5-7b",
        citation="3D T2, e = 0, item 7b",
        dim=3,
        pattern=(False, False, False),
        match=_match_l5_7b,
        residuals=["a31", "a32", "(b1,a11,a12) prop (b2,a21,a22)"],
        guards=["b3 != 0", "a33 != 0", "A33 != 0"],
        sample=_sample_l5_7b,
    ),
    Rule(
        id="L5-7c",
        citation="3D T2, e = 0, item 7c",
        dim=3,
        pattern=(False, False, False),
        match=_match_l5_7c,
        residuals=["b1-b2", "b1-b3", "a11-a21", "a12-a22"],
        guards=[
            "a11-a31 != 0",
            "a12-a32 != 0",
            "a13-a33 != 0",
            "a23-a33 != 0",
            "a13-a23 != 0",
        ],
        sample=_sample_l5_7c,
        compare_printed=_cmp_l5_7c,
        notes=[
            "printed formula is garbled: the exact construction gives "
            "x1^l1 x2^l2 ((a11-a31)x1/l2 + (a12-a32)x2/(l2+1) + (a23-a13)x3)"
        ],
    ),
    Rule(
        id="L5-7d",
        citation="3D T2, e = 0, item 7d",
        dim=3,
        pattern=(False, False, False),
        match=_match_l5_7d,
        residuals=["b1+b2", "a11+a21", "a12+a22", "a12-a32", "(b1-b3)*a23 - (b2+b3)*a13"],
        guards=["a13+a23 != 0"],
        sample=_sample_l5_7d,
        compare_printed=_cmp_l5_7d,
        notes=["printed l2 formula is missing a division by (a13+a23)"],
    ),
    Rule(
        id="L5-8a",
        citation="3D T2, e = 0, item 8a",
        dim=3,
        pattern=(False, False, False),
        match=_match_l5_8a,
        residuals=["a12", "a13", "a22*a33 - a32*a23"],
        guards=["b1^2 + a11^2 != 0"],
        sample=_sample_l5_8a,
        compare_printed=_cmp_l5_8a,
    ),
    Rule(
        id="L5-8b",
        citation="3D T2, e = 0, item 8b",
        dim=3,
        pattern=(False, False, False),
        match=_match_l5_8b,
        residuals=["b1", "a11", "b2-b3", "a21-a31"],
        guards=[
            "a13 != 0",
            "a23 != 0",
            "a22-a32 != 0",
            "a23-a33 != 0",
            "a12*(a23-a33) - a13*(a22-a32) != 0",
        ],
        sample=_sample_l5_8b,
        compare_printed=_cmp_l5_8b,
        notes=["printed l2 formula equals the exact l3 (swap typo)"],
    ),
    Rule(
        id="L5-8c",
        citation="3D T2, e = 0, item 8c (alpha = beta = gamma = 1, exact exponent solve)",
        dim=3,
        pattern=(False, False, False),
        match=_match_l5_8c,
        residuals=["the 12-row condition system at alpha=beta=gamma=1 is consistent"],
        guards=[],
        sample=_sample_l5_8c,
        compare_printed=_cmp_l5_8c,
        notes=[
            "printed condition list is fragmented; implemented by the exact "
            "solve of the condition system with alpha=beta=gamma=1"
        ],
    ),
    Rule(
        id="R3D-TRIV",
        citation="trivial integral x_i when dx_i/dt vanishes identically",
        dim=3,
        pattern=(None, None, False),
        match=_match_triv3,
        residuals=["b3", "a31", "a32", "a33"],
        guards=["e3 = 0"],
        sample=_sample_triv3,
    ),
]


SAMPLERS_3D = {r.id: r.sample for r in RULES_3D}


def detect3d(s: LVSystem) -> list[Detection]:
    """All catalog detections for a 3D system (exact matching)."""
    if s.dim != 3:
        raise ValueError("detect3d needs a 3D system")
    dets, _ = run_rules(s, RULES_3D)
    return dets


def detect3d_full(s: LVSystem) -> tuple[list[Detection], list[Candidate]]:
    if s.dim != 3:
        raise ValueError("detect3d needs a 3D system")
    return run_rules(s, RULES_3D)


def rule_conditions(rule_id: str) -> dict:
    for r in RULES_3D:
        if r.id == rule_id:
            return {
                "id": r.id,
                "citation": r.citation,
                "residuals": list(r.residuals),
                "guards": list(r.guards),
                "notes": list(r.notes),
            }
    raise KeyError(f"unknown 3D rule id {rule_id!r}")
