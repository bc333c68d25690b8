"""The paper's printed integrals and exponent formulas for the 3D rules, as
data, and the verdict of comparing each with the exact construction.

The verdict is a property of the rule, not of the system, so the program
keeps only the audited note (catalog3d._PrintedVerdict, Rule.compare_printed)
and reports it as paper_formula_deviation.  tests/test_printed_forms.py
checks, at every match of seeded sampler draws under every relabeling, that
the note is the verdict computed here (``PRINTED[rule id](s2, m, H2)``).

A printed integral (PrintedForm) is a list of terms in the paper's notation:
(coefficient, powers) or (coefficient, powers, logs), a coefficient a
condition string (detection.condition_source, which also knows the exponents
l1..l3) and a power a number or such a string.  Where a printed form
deviates, ``fix`` names the typo: {term index: (factor, shift)} multiplies
that term by the factor (a condition string) and by x^shift, and the verdict
holds only if the fixed form agrees with the construction, so a note's
explanation is audited too.  The exponent formulas that the paper prints
(L5-7a, L5-7d, L5-8a, L5-8b, L5-8c) are functions of the match; each gives
its note only where the relation that the note states holds.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Callable

import pytest

from lvfi.catalog3d import RULES_3D, detect3d, term_table
from lvfi.detection import condition_function, condition_source, integer_view
from lvfi.linalg import nullspace
from lvfi.poly import GenPoly, _acc, canonical
from lvfi.potential import lie_genpoly

from conftest import same_integral

UNDEFINED = "printed formula undefined here (zero denominator)"
UNEXPLAINED = " (the typo the note names does not explain it)"


def _gp(terms) -> GenPoly:
    """The sum of the terms (coefficient, powers) or (coefficient, powers,
    logs), built in one pass."""
    out: dict = {}
    for coeff, powers, *logs in terms:
        if coeff:
            key = (tuple(map(canonical, powers)), tuple(logs[0]) if logs else (0, 0, 0))
            _acc(out, key, Fraction(coeff))
    return GenPoly._of(3, out)


def cmp_against(printed: GenPoly, s2, H2: GenPoly, what="formula") -> str:
    """Whether the printed integral equals H2 up to a nonzero scalar and an
    additive constant (distinct GenPoly terms are independent functions, so
    that is proportionality of the nonconstant terms), and otherwise whether
    it is an integral at all, by the exact Lie derivative on the integer view
    (a zero test, so the scale of the system does not matter)."""
    if same_integral(printed, H2):
        return f"agrees: printed {what} proportional to constructed integral"
    if lie_genpoly(printed, integer_view(s2)).is_zero():
        return (
            f"deviates: printed {what} is a valid integral but not proportional "
            "to the Ansatz construction"
        )
    return (
        f"deviates: printed {what} fails the exact Lie-derivative check; "
        "oracle-derived coefficients used"
    )


def _tuple(values) -> str:
    """Source of the tuple of condition strings, numbers or such sources."""
    return "(" + "".join(f"({v})," for v in values) + ")"


def _compiled(values) -> Callable:
    """(b, A, e, d, l) -> the tuple of the values."""
    return condition_function(condition_source(_tuple(values)))


class PrintedForm:
    """A printed closed-form integral, evaluated at the match's direction and
    exponents (``Match.ansatz``); UNDEFINED where it divides by zero.
    ``what`` names the form in the verdict, ``note`` is a function
    (s2, Match) -> str appended to it, and ``fix`` names the typo of a
    deviating form (module docstring)."""

    def __init__(self, *terms, what="formula", note=None, fix=None) -> None:
        self.terms, self.what, self.note, self.fix = terms, what, note, fix or {}

    @cached_property
    def evaluate(self) -> Callable:
        """(b, A, e, d, l) -> the terms with their values, as _gp takes them."""
        return _compiled(_tuple([c, *map(_tuple, triples)]) for c, *triples in self.terms)

    @cached_property
    def factors(self) -> Callable:
        return _compiled(factor for factor, _ in self.fix.values())

    def __call__(self, s2, m, H2) -> str:
        args = (s2.b, s2.A, s2.e, *m.ansatz[1:])
        try:
            terms = self.evaluate(*args)
        except ZeroDivisionError:
            return UNDEFINED
        verdict = cmp_against(_gp(terms), s2, H2, self.what)
        if self.fix:
            fixed = list(terms)
            for (i, (_, shift)), f in zip(self.fix.items(), self.factors(*args)):
                coeff, powers, *logs = terms[i]
                fixed[i] = (coeff * f, [p + q for p, q in zip(powers, shift)], *logs)
            if not same_integral(_gp(fixed), H2):
                verdict += UNEXPLAINED
        return verdict + (self.note(s2, m) if self.note else "")


# -- the printed exponent formulas --------------------------------------------


def _l2_note(printed, l2, explained: bool, deviates: str) -> str:
    if printed == l2:
        return "agrees: printed l2 formula matches exact solve"
    return deviates + ("" if explained else UNEXPLAINED)


def l5_7a(s2, m, H2) -> str:
    """Printed l2 = -A13/A33; the exact solve gives +A13/A33."""
    _, d, (_, l2, _) = m.ansatz
    A = term_table(d, s2).A
    printed = -A[0][2] / A[2][2]
    return _l2_note(
        printed,
        l2,
        -printed == l2,
        "deviates: printed l2 = -A13/A33 but the exact solve gives l2 = A13/A33 "
        "(sign typo in the printed exponent)",
    )


def l5_7d(s2, m, H2) -> str:
    """Printed l2 = -(a33-a13)(a13+a23); the exact solve divides."""
    A, l2 = s2.A, m.ansatz[2][1]
    printed = -(A[2][2] - A[0][2]) * (A[0][2] + A[1][2])
    return _l2_note(
        printed,
        l2,
        printed / (A[0][2] + A[1][2]) ** 2 == l2,
        "deviates: printed l2 = -(a33-a13)(a13+a23) is missing the division of the "
        "exact l2 = -(a33-a13)/(a13+a23)",
    )


def l5_8b(s2, m, H2) -> str:
    """Printed l2 = a12(a23-a33)/(-a12(a23-a33) + a13(a22-a32)), which is
    the exact l3."""
    A, (_, l2, l3) = s2.A, m.ansatz[2]
    den = -A[0][1] * (A[1][2] - A[2][2]) + A[0][2] * (A[1][1] - A[2][1])
    printed = A[0][1] * (A[1][2] - A[2][2]) / den
    return _l2_note(
        printed,
        l2,
        printed == l3,
        "deviates: printed l2 formula gives the exact l3 (l2/l3 swapped in print)",
    )


def l5_8c(s2, m, H2) -> str:
    """The printed l1, l2 and l3 formulas at alpha = beta = gamma = 1, each
    defined where its denominator is nonzero."""
    A1, A2, A3 = term_table((1, 1, 1), s2).A
    l1, l2, l3 = m.ansatz[2]
    d12 = A1[0] * A2[1] - A2[0] * A1[1]
    d3 = A3[0] * A2[2] - A2[0] * A3[2]
    printed, exact = [], []
    if d12 != 0:
        printed += [A2[1] * (A2[0] - A1[0]) / d12, A1[0] * (A1[1] - A2[1]) / d12]
        exact += [l1, l2]
    if d3 != 0:
        printed.append(A3[0] * (A3[2] - A2[2]) / d3)
        exact.append(l3)
    if not printed:
        return "printed closed forms undefined here (zero denominators); exact solve used"
    if printed == exact:
        return "agrees: the printed exponent formulas defined here match the exact solve"
    return f"deviates: printed exponent formulas give {printed} vs exact {exact}"


def l5_8a_exponents(s2, m) -> str:
    """The printed l2 = -b1*alpha/B2, l3 = b1*beta/B2, with (alpha, beta)
    solving A22 = A23 = 0: defined where that direction is unique and B2 is
    nonzero.  The match's direction (l2, l3, 0) solves it, so B2 is
    proportional to b2*l2 + b3*l3 = -b1*l1, and the formulas give
    (l2/l1, -l3/l1)."""
    b, A = s2.b, s2.A
    l1, l2, l3 = m.ansatz[2]
    ab = nullspace([(A[1][1], A[2][1]), (A[1][2], A[2][2])])
    if len(ab) != 1:
        return ""
    al, be = ab[0]
    B2 = b[1] * al + b[2] * be
    if B2 == 0:
        return ""
    got = (-b[0] * al / B2, b[0] * be / B2)
    if got == (l2 / l1, -l3 / l1):
        return "; printed l2,l3 formulas give (l2/l1, -l3/l1) for the exact (l2, l3)"
    return f"; printed l2,l3 formulas give {got} for the exact ({l2}, {l3})"


# L3-1's 2D-embedded integral is L2-i's printed formula
_L2I = PrintedForm(
    ("b1", (1, 1, 0)),
    ("a11", (2, 1, 0)),
    ("-a22", (1, 2, 0)),
    ("e1", (0, 1, 0)),
    ("-e2", (1, 0, 0)),
)

PRINTED = {
    "L2-i": _L2I,
    "L2-ii": PrintedForm(
        ("-2*b1*a33", (1, 0, 1)),
        ("-2*b1*a22", (1, 1, 0)),
        ("-2*a11*a33", (2, 0, 1)),
        ("2*a11*a22", (2, 1, 0)),
        ("2*a33^2", (1, 0, 2)),
        ("2*a22^2", (1, 2, 0)),
        ("4*a22*a33", (1, 1, 1)),
        ("2*(e3*a33 + e2*a22)", (1, 0, 0)),
        ("-2*e1*a33", (0, 0, 1)),
        ("2*e1*a22", (0, 1, 0)),
        # sign typos on the x1^2*x2 and x2 terms
        fix={3: ("-1", (0, 0, 0)), 9: ("-1", (0, 0, 0))},
    ),
    "L2-iii": PrintedForm(
        ("a11^2*a22", (2, 1, 0)),
        ("-a11^2*a33", (2, 0, 1)),
        ("-a11*a22^2", (1, 2, 0)),
        ("a11*a33^2", (1, 0, 2)),
        ("a22^2*a33", (0, 2, 1)),
        ("-a22*a33^2", (0, 1, 2)),
        ("-a11*a22*e2 + a11*a33*e3", (1, 0, 0)),
        ("a11*a22*e1 - a22*a33*e3", (0, 1, 0)),
        ("a22*a33*e2 - a11*a33*e1", (0, 0, 1)),
    ),
    "L3-1": _L2I,
    "L3-2": PrintedForm(("(a13-a23)/2", (1, 1, 2)), ("e1", (0, 1, 1)), ("-e2", (1, 0, 1))),
    "L3-3": PrintedForm(
        ("e1", (0, 1, "l3")), ("-e2", (1, 0, "l3")), what="formula (with exact-solved l3)"
    ),
    "L4-1": PrintedForm(
        ("-B2", (1, 0, 0)),
        ("-A21/2", (2, 0, 0)),
        ("alpha*e1", (0, 0, 0), (0, 1, 0)),
        ("beta*e1", (0, 0, 0), (0, 0, 1)),
    ),
    "L4-2": PrintedForm(("-a23", (1, 0, 1)), ("e1", (0, 0, 0), (0, 1, 0))),
    "L4-4": PrintedForm(
        ("A33", (1, 0, 1)),
        ("beta*e1", (0, 0, 0), (0, 0, 1)),
        ("-gamma*e1", (0, 0, 0), (0, 1, 0)),
    ),
    "L4-5": PrintedForm(
        ("a13+a23", (0, 0, 1)),
        ("-(a12+a32)", (0, 1, 0)),
        ("e1", (0, 0, 0), (0, 0, 1)),
        ("-e1", (0, 0, 0), (0, 1, 0)),
        # the quadratic terms lack their x1 factors
        fix={0: ("1", (1, 0, 0)), 1: ("1", (1, 0, 0))},
    ),
    "L4-6": PrintedForm(("-a23", (1, "l2", 1)), ("e1/l2", (0, "l2", 0))),
    "L4-7": PrintedForm(
        ("b1", (1, "l2", "l3")), ("a11", (2, "l2", "l3")), ("e1", (0, "l2", "l3"))
    ),
    "L4-8": PrintedForm(("a13+a33", (1, "l2", "l3+1")), ("e1", (0, "l2", "l3"))),
    "L4-9": PrintedForm(
        ("(a12+a22)/l3", (1, "l2+1", "l3")),
        ("(a13+a23)/(l3+1)", (1, "l2", "l3+1")),
        ("e1/l3", (0, "l2", "l3")),
    ),
    "L5-1": PrintedForm(
        ("alpha*b1", (0, 0, 0), (0, 1, 0)),
        ("-alpha*b2 - beta*b3", (0, 0, 0), (1, 0, 0)),
        ("-alpha*a21 - beta*a31", (1, 0, 0)),
        ("beta*b1", (0, 0, 0), (0, 0, 1)),
    ),
    "L5-2": PrintedForm(
        ("alpha*b2 + beta*b3", (-1, 0, 0)),
        ("-alpha*a21 - beta*a31", (0, 0, 0), (1, 0, 0)),
        ("alpha*a11", (0, 0, 0), (0, 1, 0)),
        ("beta*a11", (0, 0, 0), (0, 0, 1)),
    ),
    "L5-3": PrintedForm(
        ("A31", (0, 0, 0), (0, 0, 1)),
        ("A11", (0, 0, 0), (0, 1, 0)),
        ("-A21", (0, 0, 0), (1, 0, 0)),
        ("A22", (-1, 1, 0)),
    ),
    "L5-4": PrintedForm(
        ("-(a11-a21)", (0, 0, 0), (0, 0, 1)),
        ("a11-a31", (0, 0, 0), (0, 1, 0)),
        ("-(a21-a31)", (0, 0, 0), (1, 0, 0)),
        ("a22-a32", (-1, 1, 0)),
        ("-(a13-a23)", (-1, 0, 1)),
    ),
    "L5-7a": l5_7a,
    "L5-7c": PrintedForm(
        ("(a21-a31)/(l1+1)", ("l1+1", "l2", 0)),
        ("(a22-a32)/l2", ("l1", "l2+1", 0)),
        ("a13-a23", ("l1", "l2", 1)),
        # garbled: the construction is
        # x1^l1 x2^l2 ((a11-a31)x1/l2 + (a12-a32)x2/(l2+1) + (a23-a13)x3)
        fix={0: ("(l1+1)/l2", (0, 0, 0)), 1: ("l2/(l2+1)", (0, 0, 0)), 2: ("-1", (0, 0, 0))},
    ),
    "L5-7d": l5_7d,
    "L5-8a": PrintedForm(
        ("b1", ("l1", "l2", "l3")), ("a11", ("l1+1", "l2", "l3")), note=l5_8a_exponents
    ),
    "L5-8b": l5_8b,
    "L5-8c": l5_8c,
}


def printed_calls(systems) -> list[tuple]:
    """(rule id, s2, Match, H2, note) of every Rule.compare_printed call while
    detect3d runs on each system: the relabeled system, the match and the
    constructed integral that the gate passed, and the note returned."""
    calls: list[tuple] = []

    def spy(rule, note_of):
        def call(s2, m, H2):
            note = note_of(s2, m, H2)
            calls.append((rule.id, s2, m, H2, note))
            return note

        return call

    with pytest.MonkeyPatch.context() as mp:
        for rule in RULES_3D:
            if rule.compare_printed is not None:
                mp.setattr(rule, "compare_printed", spy(rule, rule.compare_printed))
        for s in systems:
            detect3d(s)
    return calls


def audit(systems) -> list[tuple[str, str, str]]:
    """(rule id, audited verdict, note) of every printed-form note that
    detect3d reports on the systems."""
    calls = printed_calls(systems)
    return [(rid, PRINTED[rid](s2, m, H2), note) for rid, s2, m, H2, note in calls]
