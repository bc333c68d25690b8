"""The 2D rule catalog: every case of the two-dimensional analysis.

Rule map (e-pattern -> applicability conditions -> integral):

  R2D-A      e1,e2 != 0: b1+b2 = 2a11+a21 = a12+2a22 = 0, exponents 1.
  R2D-B      e1 != 0, e2 = 0: l1 = 1 and l2 from the exact solve of the 3x1
             exponent system (the closed form -2a11/a21 when a21 != 0); the
             l2 = 0 branch produces the log form, the all-zero-column case the
             trivial integral x2.
  R2D-C      e1 = e2 = 0, exponent matrix of full rank: (l1, l2) from the
             exact constrained solve; subcases by the zero pattern of l.
  R2D-D      e1 = e2 = 0, coefficient rows proportional: monomial integral
             x1 * x2^(-lambda).
  R2D-E      a11 = a22 = 0, e2 a12 = e1 a21, b1+b2 = 0 (exponential Ansatz
             factor): linear-plus-log integral around e1 + a12 x1 x2.

Mirrored cases are obtained by coordinate relabeling in the engine, not by
hand-written twin rules.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import expr as ex
from .detection import Candidate, Detection, Match, Rule, run_rules
from .linalg import rank, solve_constrained
from .model import LVSystem, Permutation, make_system, permute_system
from .oracle import _f_laurent
from .poly import GenPoly


def _q(rng: random.Random, nonzero=False, num=6, den=3) -> Fraction:
    """Small random rational; the draw shared by the 2D and 3D samplers."""
    while True:
        v = Fraction(rng.randint(-num, num), rng.randint(1, den))
        if not nonzero or v != 0:
            return v


# -- R2D-A --------------------------------------------------------------------


def _match_a(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    if b[0] + b[1] or 2 * A[0][0] + A[1][0] or A[0][1] + 2 * A[1][1]:
        return []
    one = Fraction(1)
    return [Match(params={"l1": one, "l2": one}, ansatz=("2d-exponents", (), (one, one)))]


def _sample_a(rng) -> LVSystem:
    b1, a11, a22 = _q(rng), _q(rng, True), _q(rng, True)
    return make_system(
        b=(b1, -b1),
        A=((a11, -2 * a22), (-2 * a11, a22)),
        e=(_q(rng, True), _q(rng, True)),
    )


# -- R2D-B (incl. l2 = 0 branch and rank-zero trivial integral) ---------------


def _match_b(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    col = (A[1][0], A[1][1], b[1])
    if col == (0, 0, 0):
        return []  # trivial-row rule covers this
    m = ((col[0],), (col[1],), (col[2],))
    r = (-2 * A[0][0], -(A[1][1] + A[0][1]), -b[0])
    out = solve_constrained(m, r)
    if out.status != "unique":
        return []
    l2 = out.solution[0]
    return [
        Match(
            params={"l1": Fraction(1), "l2": l2},
            ansatz=("2d-exponents", (), (Fraction(1), l2)),
            subid="l2=0" if l2 == 0 else "",
        )
    ]


def _match_b_rank0(s: LVSystem) -> list[Match]:
    if s.b[1] == 0 and s.A[1][0] == 0 and s.A[1][1] == 0:
        return [Match(params={}, H_gen=GenPoly.term(2, 1, (0, 1)), subid="")]
    return []


def _sample_b(rng) -> LVSystem:
    a21, a11, a22 = _q(rng, True), _q(rng, True), _q(rng, True)
    b2 = _q(rng)
    a12 = 2 * a11 * a22 / a21 - a22
    b1 = 2 * b2 * a11 / a21
    return make_system(b=(b1, b2), A=((a11, a12), (a21, a22)), e=(_q(rng, True), 0))


def _sample_b_l2_0(rng) -> LVSystem:
    a21, a22 = _q(rng, True), _q(rng, True)
    return make_system(
        b=(0, _q(rng)), A=((0, -a22), (a21, a22)), e=(_q(rng, True), 0)
    )


def _sample_b_rank0(rng) -> LVSystem:
    return make_system(
        b=(_q(rng), 0), A=((_q(rng), _q(rng)), (0, 0)), e=(_q(rng, True), 0)
    )


# -- R2D-C --------------------------------------------------------------------


def _match_c(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    m = ((A[0][0], A[1][0]), (A[0][1], A[1][1]), (b[0], b[1]))
    if rank(m) != 2:
        return []
    out = solve_constrained(m, (-A[0][0], -A[1][1], Fraction(0)))
    if out.status != "unique":
        return []
    l1, l2 = out.solution
    if l1 == 0 and l2 == 0:
        subid = "l1=l2=0"
    elif l1 == 0 and l2 == -1:
        subid = "l1=0,l2=-1"
    elif l1 == 0:
        subid = "l1=0"
    elif l2 != 0:
        subid = "main"
    else:
        return []  # l2 = 0, l1 != 0: found as an l1 subcase of the mirror run
    return [
        Match(params={"l1": l1, "l2": l2}, ansatz=("2d-exponents", (), (l1, l2)), subid=subid)
    ]


def _sample_c_main(rng) -> LVSystem:
    while True:
        a11, a12, a21, a22 = (_q(rng) for _ in range(4))
        det = a11 * a22 - a12 * a21
        if det == 0:
            continue
        l1 = a22 * (a21 - a11) / det
        l2 = a11 * (a12 - a22) / det
        if l1 == 0 or l2 == 0:
            continue
        b2 = _q(rng, True)
        b1 = -b2 * l2 / l1
        return make_system(b=(b1, b2), A=((a11, a12), (a21, a22)), e=(0, 0))


def _sample_c_l1_0(rng) -> LVSystem:
    while True:
        a11, a21, a12 = _q(rng, True), _q(rng, True), _q(rng, True)
        if a21 == a11:  # would give l2 = -1
            continue
        return make_system(
            b=(_q(rng), 0), A=((a11, a12), (a21, 0)), e=(0, 0)
        )


def _sample_c_l1_0_l2_m1(rng) -> LVSystem:
    a11, a12 = _q(rng, True), _q(rng, True)
    return make_system(b=(_q(rng), 0), A=((a11, a12), (a11, 0)), e=(0, 0))


def _sample_c_volterra(rng) -> LVSystem:
    return make_system(
        b=(_q(rng), _q(rng)),
        A=((0, _q(rng, True)), (_q(rng, True), 0)),
        e=(0, 0),
    )


def _mirrored(sampler):
    swap = Permutation((1, 0))

    def inner(rng):
        return permute_system(sampler(rng), swap)

    return inner


# -- R2D-D --------------------------------------------------------------------


def _match_d(s: LVSystem) -> list[Match]:
    b, A = s.b, s.A
    c1 = (A[0][0], A[0][1], b[0])
    c2 = (A[1][0], A[1][1], b[1])
    if all(v == 0 for v in c1) or all(v == 0 for v in c2):
        return []  # trivial rows handled separately
    lam = None
    for u, v in zip(c1, c2):
        if v != 0:
            lam = u / v
            break
    if lam is None or lam == 0:
        return []
    if any(u != lam * v for u, v in zip(c1, c2)):
        return []
    return [
        Match(params={"lambda": lam}, H_gen=GenPoly.term(2, 1, (1, -lam)))
    ]


def _sample_d(rng) -> LVSystem:
    a21, a22, b2, lam = _q(rng, True), _q(rng), _q(rng), _q(rng, True)
    return make_system(
        b=(lam * b2, b2), A=((lam * a21, lam * a22), (a21, a22)), e=(0, 0)
    )


# -- R2D-E --------------------------------------------------------------------


def _lie_zero_e(s: LVSystem) -> bool:
    """(a21 f1 - a12 f2)(e1 + a12 x1 x2) + b2 a12 (x2 f1 + x1 f2) == 0."""
    b, A, e = s.b, s.A, s.e
    f1 = _f_laurent(2, b, A, e, 0)
    f2 = _f_laurent(2, b, A, e, 1)
    P = GenPoly.term(2, e[0], (0, 0)) + GenPoly.term(2, A[0][1], (1, 1))
    x1 = GenPoly.term(2, 1, (1, 0))
    x2 = GenPoly.term(2, 1, (0, 1))
    lhs = (f1.scale(A[1][0]) - f2.scale(A[0][1])) * P + (
        (x2 * f1) + (x1 * f2)
    ).scale(s.b[1] * A[0][1])
    return lhs.is_zero()


def _match_e(s: LVSystem) -> list[Match]:
    b, A, e = s.b, s.A, s.e
    if A[0][0] != 0 or A[1][1] != 0:
        return []
    if b[0] + b[1] != 0 or e[1] * A[0][1] - e[0] * A[1][0] != 0:
        return []
    if A[0][1] == 0 or A[1][0] == 0 or b[1] == 0:
        return []
    a12, a21, b2, e1 = A[0][1], A[1][0], b[1], e[0]
    alpha = a12 * a21 / b2
    H = ex.Add(
        (
            ex.Mul((ex.Const(a21), ex.Var(0))),
            ex.Mul((ex.Const(-a12), ex.Var(1))),
            ex.Mul(
                (
                    ex.Const(b2),
                    ex.LnAbs(
                        ex.Add(
                            (
                                ex.Const(e1),
                                ex.Mul((ex.Const(a12), ex.Var(0), ex.Var(1))),
                            )
                        )
                    ),
                )
            ),
        )
    )
    key = ("permvec", (a21, -a12), (b2,), (e1 / a12,))
    return [
        Match(
            params={"alpha": alpha},
            ansatz=("2d-separable", (alpha, Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))),
            H_expr=H,
            lie_zero_check=_lie_zero_e,
            dedup_key=key,
        )
    ]


def _sample_e(rng) -> LVSystem:
    a12, a21, b2 = _q(rng, True), _q(rng, True), _q(rng, True)
    e1 = _q(rng)
    return make_system(
        b=(-b2, b2), A=((0, a12), (a21, 0)), e=(e1, e1 * a21 / a12)
    )


RULES_2D: list[Rule] = [
    Rule(
        id="R2D-A",
        citation="2D case e1,e2 != 0 (unit exponents)",
        dim=2,
        pattern=(True, True),
        match=_match_a,
        residuals=["b1+b2", "2*a11+a21", "a12+2*a22"],
        guards=["e1 != 0", "e2 != 0"],
        sample=_sample_a,
    ),
    Rule(
        id="R2D-B",
        citation="2D case e1 != 0, e2 = 0 (power/log integral in x2)",
        dim=2,
        pattern=(True, False),
        match=_match_b,
        residuals=["2*a11*a22 - a22*a21 - a12*a21", "2*b2*a11 - b1*a21"],
        guards=["e1 != 0", "e2 = 0", "a21 != 0 (closed form; exact solve covers a21 = 0)"],
        sample=_sample_b,
    ),
    Rule(
        id="R2D-B/rank0",
        citation="2D case e2 = 0 with vanishing second row (trivial integral x2)",
        dim=2,
        pattern=(None, False),
        match=_match_b_rank0,
        residuals=["b2", "a21", "a22"],
        guards=["e2 = 0"],
        sample=_sample_b_rank0,
    ),
    Rule(
        id="R2D-C",
        citation="2D case e1 = e2 = 0, full-rank exponent solve",
        dim=2,
        pattern=(False, False),
        match=_match_c,
        residuals=["b1*a22*(a21-a11) + b2*a11*(a12-a22)"],
        guards=["e1 = e2 = 0", "rank of exponent matrix = 2"],
        sample=_sample_c_main,
    ),
    Rule(
        id="R2D-D",
        citation="2D case e1 = e2 = 0, rank-one coefficient rows; H = x1*x2^(-lambda)",
        dim=2,
        pattern=(False, False),
        match=_match_d,
        residuals=["a11*a22 - a12*a21", "a11*b2 - a21*b1", "a12*b2 - a22*b1"],
        guards=["lambda != 0", "both coefficient rows nonzero"],
        sample=_sample_d,
    ),
    Rule(
        id="R2D-E",
        citation="2D exponential-factor case (a11 = a22 = 0); linear + log integral",
        dim=2,
        pattern=None,
        match=_match_e,
        residuals=["a11", "a22", "b1+b2", "e2*a12 - e1*a21"],
        guards=["a12 != 0", "a21 != 0", "b2 != 0"],
        sample=_sample_e,
        notes=[
            "with b2 = 0 the exponential form degenerates (the derivation "
            "divides by b2), so the rule is inapplicable there"
        ],
    ),
]


SAMPLERS_2D = {
    "R2D-A": _sample_a,
    "R2D-B": _sample_b,
    "R2D-B/l2=0": _sample_b_l2_0,
    "R2D-B/rank0": _sample_b_rank0,
    "R2D-C/main": _sample_c_main,
    "R2D-C/l1=0": _sample_c_l1_0,
    "R2D-C/l1=0,l2=-1": _sample_c_l1_0_l2_m1,
    "R2D-C/l1=l2=0": _sample_c_volterra,
    "R2D-C/main-mirror": _mirrored(_sample_c_main),
    "R2D-C/l2=0-mirror": _mirrored(_sample_c_l1_0),
    "R2D-C/l2=0,l1=-1-mirror": _mirrored(_sample_c_l1_0_l2_m1),
    "R2D-D": _sample_d,
    "R2D-E": _sample_e,
}


def detect2d(s: LVSystem) -> list[Detection]:
    """All catalog detections for a 2D system (exact matching)."""
    if s.dim != 2:
        raise ValueError("detect2d needs a 2D system")
    dets, _ = run_rules(s, RULES_2D)
    return dets


def detect2d_full(s: LVSystem) -> tuple[list[Detection], list[Candidate]]:
    if s.dim != 2:
        raise ValueError("detect2d needs a 2D system")
    return run_rules(s, RULES_2D)


def rule_conditions(rule_id: str) -> dict:
    """Structured condition report for one rule id."""
    for r in RULES_2D:
        if r.id == rule_id:
            return {
                "id": r.id,
                "citation": r.citation,
                "residuals": list(r.residuals),
                "guards": list(r.guards),
                "notes": list(r.notes),
            }
    raise KeyError(f"unknown 2D rule id {rule_id!r}")
