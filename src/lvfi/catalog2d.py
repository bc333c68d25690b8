"""The 2D rule catalog: every case of the two-dimensional analysis.

Rule map (e-pattern -> applicability conditions -> integral):

  R2D-A      e1,e2 != 0: b1+b2 = 2a11+a21 = a12+2a22 = 0, exponents 1.
  R2D-B      e1 != 0, e2 = 0: l1 = 1 and l2 from the exact solve (the
             closed form -2a11/a21 when a21 != 0); l2 = 0 is the log form
             R2D-B/l2=0.  A zero column (a21, a22, b2), where any l2 solves,
             is R2D-B/rank0, the trivial integral x2.
  R2D-C      e1 = e2 = 0, exponent matrix of full rank: (l1, l2) from the
             exact constrained solve; subcases by the zero pattern of l.
  R2D-D      e1 = e2 = 0, coefficient rows proportional: monomial integral
             x1 * x2^(-lambda).
  R2D-E      a11 = a22 = 0, e2 a12 = e1 a21, b1+b2 = 0 (exponential Ansatz
             factor e^(c.x), params c = (a21, -a12)/b2): linear-plus-log
             integral around e1 + a12 x1 x2.

R2D-A, R2D-B and R2D-C are data for the 3D Ansatz rules' matcher
(catalog3d._ConstantDirection): the factor x1^(l1-1) x2^(l2-1), with
(l1, l2) solved from the oracle's rows, and subcases as labels read off
(l1, l2) (Rule.subcases).
R2D-E's factor e^(c.x) lies in the same exponent chart, and its match
states the integral as GenPoly data with a log atom (_match_e, Match.log).

Mirrored cases are obtained by coordinate relabeling in the engine, not by
hand-written twin rules.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from .catalog3d import _ROWS_12, _direction_rule, _q
from .detection import Candidate, DependentRows, Detection, Match, Rule, run_rules
from .linalg import solve_constrained  # noqa: F401  (perfbench/spans.py wraps this name)
from .model import LVSystem, Permutation, make_system, permute_system
from .poly import GenPoly


# -- R2D-A --------------------------------------------------------------------


def _sample_a(rng) -> LVSystem:
    b1, a11, a22 = _q(rng), _q(rng, True), _q(rng, True)
    return make_system(
        b=(b1, -b1),
        A=((a11, -2 * a22), (-2 * a11, a22)),
        e=(_q(rng, True), _q(rng, True)),
    )


# -- R2D-B (incl. l2 = 0 branch and rank-zero trivial integral) ---------------


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


def _match_d(s: LVSystem, nullspaces: Optional[Callable] = None) -> list[Match]:
    """Rows (b1, a11, a12) = lambda (b2, a21, a22), both nonzero and
    lambda != 0, exactly when the rows' nullspace is one candidate
    (1, -lambda) with no zero entry (a zero row gives a unit vector);
    H = x1 x2^(-lambda) is its monomial, as in DependentRows."""
    found = _ROWS_12.nullspace(s, nullspaces)
    if len(found) != 1 or not all(found[0]):
        return []
    v = found[0]
    return [Match(params={"lambda": -v[1]}, H_gen=GenPoly.term(2, 1, v))]


def _sample_d(rng) -> LVSystem:
    a21, a22, b2, lam = _q(rng, True), _q(rng), _q(rng), _q(rng, True)
    return make_system(
        b=(lam * b2, b2), A=((lam * a21, lam * a22), (a21, a22)), e=(0, 0)
    )


# -- R2D-E --------------------------------------------------------------------


def _match_e(s: LVSystem, nullspaces: Optional[Callable] = None) -> list[Match]:
    """H = G + b2 ln|P|, G = a21 x1 - a12 x2 and P = e1 + a12 x1 x2, from
    the factor e^(c.x) with unit exponents and c = (a21, -a12)/b2, in the
    exponent chart of oracle.residual_2d_exponents.  The conditions are
    homogeneous in (b, A, e) and c is a ratio, so scaling (b, A, e) changes
    neither; the params are c.  G, b2 and P scale with (b, A, e), and
    normalize_for_output removes the scale."""
    b, A, e = s.b, s.A, s.e
    if A[0][0] != 0 or A[1][1] != 0:
        return []
    if b[0] + b[1] != 0 or e[1] * A[0][1] - e[0] * A[1][0] != 0:
        return []
    if A[0][1] == 0 or A[1][0] == 0 or b[1] == 0:
        return []
    a12, a21, b2, e1 = A[0][1], A[1][0], b[1], e[0]
    c = (Fraction(a21, b2), Fraction(-a12, b2))
    return [
        Match(
            params={"c1": c[0], "c2": c[1]},
            ansatz=("2d-exponents", c, (1, 1)),
            H_gen=GenPoly.term(2, a21, (1, 0)) + GenPoly.term(2, -a12, (0, 1)),
            log=(b2, GenPoly.term(2, e1, (0, 0)) + GenPoly.term(2, a12, (1, 1))),
        )
    ]


def _sample_e(rng) -> LVSystem:
    a12, a21, b2 = _q(rng, True), _q(rng, True), _q(rng, True)
    e1 = _q(rng)
    return make_system(
        b=(-b2, b2), A=((0, a12), (a21, 0)), e=(e1, e1 * a21 / a12)
    )


RULES_2D: list[Rule] = [
    _direction_rule(
        id="R2D-A",
        citation="2D case e1,e2 != 0 (unit exponents)",
        dim=2,
        pattern=(True, True),
        ansatz=("2d-exponents", (), ("l1", "l2")),
        residuals=["b1+b2", "2*a11+a21", "a12+2*a22"],
        guards=["e1 != 0", "e2 != 0"],
        sample=_sample_a,
    ),
    _direction_rule(
        id="R2D-B",
        citation="2D case e1 != 0, e2 = 0 (power/log integral in x2)",
        dim=2,
        pattern=(True, False),
        ansatz=("2d-exponents", (), ("l1", "l2")),
        residuals=["2*a11*a22 - a22*a21 - a12*a21", "2*b2*a11 - b1*a21"],
        guards=["(a21, a22, b2) != (0, 0, 0)"],
        subcases=[("l2 == 0", "l2=0"), ("l2 != 0", "")],
        sample=_sample_b,
        notes=["closed form l2 = -2*a11/a21 where a21 != 0; the exact solve covers a21 = 0"],
    ),
    Rule(
        id="R2D-B/rank0",
        citation="2D case e2 = 0 with vanishing second row (trivial integral x2)",
        dim=2,
        pattern=(None, False),
        match=DependentRows((1,)),
        residuals=["b2", "a21", "a22"],
        guards=["e2 = 0"],
        sample=_sample_b_rank0,
    ),
    _direction_rule(
        id="R2D-C",
        citation="2D case e1 = e2 = 0, full-rank exponent solve",
        dim=2,
        pattern=(False, False),
        ansatz=("2d-exponents", (), ("l1", "l2")),
        residuals=["b1*a22*(a21-a11) + b2*a11*(a12-a22)"],
        guards=["(a11*a22 - a12*a21, a11*b2 - a21*b1, a12*b2 - a22*b1) != (0, 0, 0)"],
        subcases=[
            ("l1 == 0 and l2 == 0", "l1=l2=0"),
            ("l1 == 0 and l2 == -1", "l1=0,l2=-1"),
            ("l1 == 0", "l1=0"),
            ("l2 != 0", "main"),
        ],
        sample=_sample_c_main,
        notes=["l1 != 0 with l2 = 0 fits no subcase: the mirrored relabeling has l1 = 0"],
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
            "divides by b2), so the rule is inapplicable there",
            "params c1, c2: the factor's exponent c = (a21/b2, -a12/b2); the "
            "separable chart of `lvfi oracle --ansatz 2d` takes --alpha = a12*c1",
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
