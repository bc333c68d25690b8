"""The 3D rule catalog: both integrating-factor Ansatz families.

The constant matrix family (T1) forces unit exponents and its conditions do
not involve the constant terms at all, so those three rules apply to every
constant-term pattern.  The coordinate-weighted family (T2) splits by the zero
pattern of e; each rule records the applicability residuals, the parameter or
exponent solve, and guards, exactly as the case analysis dictates.  The
Ansatz rules hold their Ansatz as data (``Rule.ansatz``): the kind, a
direction template (alpha, beta, gamma) and an exponent template, each entry
constant, free or tied.  One matcher (_ConstantDirection) evaluates their
printed residuals, solves the free entries from the printed solve rows and
the oracle's condition rows, and evaluates the guards at each match.  The
2D exponent rules R2D-A, R2D-B and R2D-C (catalog2d) are data for the same
matcher, with their subcases as labels read off the solved exponents.  The
stated integrals L4-3, L5-5 and R3D-TRIV share detection.DependentRows; only
L5-6, whose integral is not a nullspace candidate, keeps a hand-written
matcher, built from the nullspaces of two DependentRows pairs.

Printed closed forms are treated as claims: the integral is always rebuilt
from the Ansatz by exact potential reconstruction, and the exact solve is the
arbiter (several printed formulas are garbled).  Whether a rule's printed
integral agrees with the construction is a property of the rule, decided
once by an audit in the tests (tests/test_printed_forms.py, which holds the
printed forms as data).  Each rule keeps only the audited verdict
(_PrintedVerdict): a note, and where the verdict differs on a subvariety, a
condition on the match that names it.  A detection reports that note as
paper_formula_deviation, and `lvfi catalog` lists it among the rule's notes.

The permutation engine covers all index-relabeled cases mechanically.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, Optional

from .detection import (
    Candidate,
    DependentRows,
    Detection,
    Match,
    Rule,
    condition_function,
    condition_source,
    run_rules,
)
from .linalg import SolveOutcome, nullspace, nullspace_candidates, primitive, solve_constrained
from .model import LVSystem, make_system
from .oracle import _curl, _symbolic_system, _t_components, residual_3d_generic
from .poly import GenPoly, SymPoly, ratio
from .potential import ConstructionError, gradient_targets_3d, potential

F = Fraction
_D_NAMES = ("alpha", "beta", "gamma")
_L_NAMES = ("l1", "l2", "l3")


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
    B, A = _term_table_function()(s.b, s.A, s.e, tuple(Fraction(v) for v in abg))
    return TermTable(B=B, A=A)


@cache
def _term_table_function() -> Callable:
    """(b, A, e, d) -> ((B1, B2, B3), ((A11, A12, A13), ...)), compiled on
    first use from the names condition_source knows."""
    rows = ", ".join(f"(A{k}1, A{k}2, A{k}3)" for k in (1, 2, 3))
    return condition_function(condition_source(f"((B1, B2, B3), ({rows}))"))


def _l_candidates(out: SolveOutcome) -> list[tuple]:
    if out.solution is None:  # infeasible
        return []
    return [out.solution, *(tuple(a + b for a, b in zip(out.solution, v)) for v in out.basis)]


def _affine_rows(conds, free) -> Callable:
    """(b, A, e, d=(), l=()) -> (m, r), where m @ (free entries) = r is the
    system of the symbolic conditions conds (SymPoly).  Other direction and
    exponent names in conds are read from d and l by position (beta from
    d[1], l2 from l[1]).  Rows equal up to a rational factor are kept once,
    which leaves the solve unchanged; with no row left, one zero row."""
    ncols = len(free)
    rows: list[dict] = []  # (column, coefficient monomial) -> coefficient
    for cond in conds:
        row = {}
        for mono, c in cond.terms.items():
            col = next((k for k, n in enumerate(free) if (n, 1) in mono), ncols)
            rest = tuple(x for x in mono if x[0] not in free)
            if len(rest) + (col < ncols) != len(mono):
                raise ValueError(f"condition row not affine in {free}")
            row[(col, rest)] = c if col < ncols else -c
        if row and not any(ratio(row, kept) for kept in rows):
            rows.append(row)
    # Homogeneous rows first: pivots taken from them leave the right-hand
    # side unchanged, so its Fractions stay small (about 10% faster on
    # L5-8c).
    rows.sort(key=lambda row: any(col == ncols for col, _ in row))

    def entry(row, col) -> str:
        # Every term holds one system coefficient, so a nonzero entry with
        # integer coefficients evaluates to a Fraction; the solve never
        # pivots on a zero entry.
        p = SymPoly({rest: c for (k, rest), c in row.items() if k == col})
        if any(c.denominator != 1 for c in p.terms.values()):
            raise ValueError("condition rows need integer coefficients")
        return str(p)

    m = ", ".join(
        "(" + "".join(f"{entry(row, k)}, " for k in range(ncols)) + ")" for row in rows or [{}]
    )
    r = ", ".join(entry(row, ncols) for row in rows or [{}])
    return condition_function(condition_source(f"(({m},), ({r},))"))


def _template_function(template) -> Callable:
    """(free names, by keyword) -> the entries of an Ansatz template, with
    constants as Fractions and tied entries evaluated (primes dropped from
    the names)."""
    consts = {f"k{i}": F(v) for i, v in enumerate(template) if not isinstance(v, str)}
    entries = [
        v.replace("'", "") if isinstance(v, str) else f"k{i}" for i, v in enumerate(template)
    ]
    names = ", ".join(f"{n}=None" for n in _D_NAMES + _L_NAMES)
    return eval(
        f"lambda {names}: ({''.join(f'{v}, ' for v in entries)})",
        {"__builtins__": {}, **consts},
    )


# A condition source that reads the direction or the exponents
_NAMES_UNKNOWN = re.compile(r"\b[dl]\[")


def _by_position(values: dict) -> tuple[tuple, tuple]:
    """(d, l) holding named values by position (beta at d[1], l2 at l[1])."""
    return tuple(map(values.get, _D_NAMES)), tuple(map(values.get, _L_NAMES))


class _ConstantDirection:
    """Matcher derived from a rule's Ansatz template.

    The rule's ``ansatz`` is (kind, direction template, exponent template),
    in the rule's dimension.  Each template entry is a number (a constant),
    its own name (a free entry: ``"alpha"``, ``"beta"``, ``"gamma"``, primed
    for T1, or ``"l<i>"``) or an expression in the free names (a tied entry,
    such as ``"-gamma"``, or ``"l3"`` in a direction).  A 2D rule's
    direction template is empty: its T/R is one skew entry, with direction
    (1,) in the oracle (oracle.T_WEIGHTS).  A printed residual naming the
    direction or the exponents (``l3``, or a term-table name such as
    ``B3``) is a *solve row*; every other one must vanish for the system to
    be tried.  The free entries are solved first from the solve rows, then
    from the oracle's condition rows (as in derive_conditions), each in the
    free names still unknown.  Rows in free direction names are
    homogeneous, and each nullspace candidate (nullspace_candidates) is a
    solution; rows in free exponents are affine, and each solution
    candidate (_l_candidates) is one.  Rows holding products of unknown
    names are not affine, and compiling them raises ValueError.  A guard on
    the coefficients alone is checked with the residuals; every other guard
    must hold at the match's direction and exponents, and the first of the
    rule's subcases (Rule.subcases) that holds there labels it.

    run_rules calls the matcher on the system's primitive-integer view, as
    it calls every matcher, and the direction solves read its table of row
    nullspaces (detection.RowNullspaces).  Every residual, guard and row is
    homogeneous in (b, A, e), each row of a solve of one degree, so the
    precheck, the nullspaces and the solutions equal those on the Fraction
    system, and the params (Fractions from the solves and the templates)
    are the same.  The later rows and the guards are linear in a solved
    direction, so they read it scaled to primitive integers, and the
    arithmetic stays in ints.
    """

    def __init__(self, rule: Rule):
        self.rule = rule
        self.kind, self.dtemplate, self.template = rule.ansatz
        prime = "'" if self.kind == "3d-t1" else ""
        self.dnames = [n + prime for n in _D_NAMES]
        self.free = [n.rstrip("'") for n, t in zip(self.dnames, self.dtemplate) if t == n]
        self.free += [n for n, t in zip(_L_NAMES, self.template) if t == n]
        self.varying = [n for n, t in zip(_L_NAMES, self.template) if isinstance(t, str)]

    # Compiled on first use, so importing the catalog compiles nothing.
    @cached_property
    def sources(self) -> tuple[list[str], ...]:
        """The printed residuals and then the guards as condition sources,
        each split into those on the coefficients alone and those that read
        the direction or the exponents (the solve rows; the guards checked
        at each match)."""
        out = []
        for texts in (self.rule.residuals, self.rule.guards):
            srcs = [condition_source(t) for t in texts]
            out += [[t for t in srcs if not _NAMES_UNKNOWN.search(t)]]
            out += [[t for t in srcs if _NAMES_UNKNOWN.search(t)]]
        return tuple(out)

    @cached_property
    def holds(self) -> Callable:
        """(b, A, e) -> whether every printed residual but the solve rows
        vanishes and every guard on the coefficients alone holds."""
        checks, _, guards, _ = self.sources
        tests = [f"not ({t})" for t in checks] + [f"({t})" for t in guards]
        return condition_function(" and ".join(tests) or "True")

    @cached_property
    def subid(self) -> Callable:
        """(b, A, e, d, l) -> the label of the first subcase whose condition
        holds at the direction d and the exponents l ("" for a rule without
        subcases), or None when no subcase fits or another guard fails
        there."""
        cases = self.rule.subcases or [("True", "")]
        label = "".join(f"{v!r} if ({condition_source(c)}) else " for c, v in cases)
        admits = " and ".join(f"({t})" for t in self.sources[3]) or "True"
        return condition_function(f"({label}None) if ({admits}) else None")

    @cached_property
    def direction(self) -> Callable:
        """(free names, by keyword) -> (alpha, beta, gamma)."""
        return _template_function(self.dtemplate)

    @cached_property
    def exponents(self) -> Callable:
        """(free names, by keyword) -> every exponent of the template."""
        return _template_function(self.template)

    @cached_property
    def stages(self) -> list[tuple[list[str], Callable]]:
        """The solves in order, each (free names, (b, A, e, d, l) -> (m, r)),
        with the names solved before read from d and l: the solve rows, then
        the oracle's condition rows when free names are left.  Both are
        taken at the templates and the pattern's zero constant terms."""
        n = self.rule.dim
        b, A, e = _symbolic_system(n)
        pattern = self.rule.pattern or (None,) * n
        e = tuple(0 if want is False else ei for want, ei in zip(pattern, e))
        free = {n: SymPoly.sym(n) for n in self.free}
        d, l = self.direction(**free), self.exponents(**free)
        conds = [condition_function(src)(b, A, e, d, l) for src in self.sources[1]]
        held = {name for c in conds for mono in c.terms for name, _ in mono}
        solved = [n for n in self.free if n in held]
        stages = [(solved, _affine_rows(conds, solved))] if conds else []
        unsolved = [n for n in self.free if n not in held]
        if unsolved:
            t = _t_components(n, b, A, e, self.kind, d or (1,))
            conds = [c for comp in _curl(t, [v - 1 for v in l]) for _, c in comp.items_sorted()]
            stages.append((unsolved, _affine_rows(conds, unsolved)))
        return stages

    def __call__(self, s: LVSystem, nullspaces: Optional[Callable] = None) -> list[Match]:
        b, A, e = s.b, s.A, s.e
        nullspaces = nullspaces or nullspace_candidates
        if not self.holds(b, A, e):
            return []
        # the free names' values per candidate, and the same values with a
        # solved direction scaled to primitive integers, which the later
        # rows and the guards read (they are homogeneous in it)
        found = [({}, {})]
        for names, rows in self.stages:
            scale = primitive if names[0] in _D_NAMES else tuple
            found = [
                ({**v, **dict(zip(names, w))}, {**vi, **dict(zip(names, scale(w)))})
                for v, vi in found
                for w in self._solve(names, rows(b, A, e, *_by_position(vi)), nullspaces)
            ]
        matches = [(self.direction(**v), self.exponents(**v)) for v, _ in found]
        labelled = [(d, l, self.subid(b, A, e, primitive(d), l)) for d, l in matches]
        return [self._match(d, l, sid) for d, l, sid in labelled if sid is not None]

    @staticmethod
    def _solve(names, mr, nullspaces) -> list[tuple]:
        m, r = mr
        if names[0] in _D_NAMES:
            return nullspaces(m)
        return _l_candidates(solve_constrained(m, r))

    def _match(self, abg, l, subid: str) -> Match:
        params = {name: l[int(name[1]) - 1] for name in self.varying}
        params.update(zip(self.dnames, abg))
        return Match(params=params, ansatz=(self.kind, abg, l), subid=subid)


_AGREES = "agrees: printed formula proportional to constructed integral"
_FAILS = (
    "deviates: printed formula fails the exact Lie-derivative check; "
    "oracle-derived coefficients used"
)


class _PrintedVerdict:
    """A rule's audited verdict on the paper's printed integral
    (``Rule.compare_printed``), reported as paper_formula_deviation.

    Each exception is (condition, note): a condition on the match, as a
    guard is, naming a subvariety where the verdict differs; the first that
    holds wins.  A call evaluates no printed term.  The relabeled Fraction
    system s2 comes as a zero-argument callable: only a verdict with
    exceptions builds it, to test their conditions.  The audit
    (tests/test_printed_forms.py) evaluates the printed forms at every
    match of seeded sampler draws under every relabeling and asserts that
    the outcome is the note returned there.
    """

    def __init__(self, verdict: str, *exceptions: tuple[str, str]) -> None:
        self.verdict, self.exceptions = verdict, exceptions

    # Compiled on first use, so importing the catalog compiles nothing.
    @cached_property
    def tests(self) -> list[tuple[Callable, str]]:
        return [(condition_function(condition_source(c)), note) for c, note in self.exceptions]

    def __call__(self, s2: Callable, m: Match) -> str:
        if self.exceptions:
            s = s2()
            _, d, l = m.ansatz
            for holds, note in self.tests:
                if holds(s.b, s.A, s.e, d, l):
                    return note
        return self.verdict

    def notes(self) -> list[str]:
        """The verdict and its exceptions, as `lvfi catalog` lists them."""
        return [f"printed integral (audited): {self.verdict}"] + [
            f"printed integral where {c}: {note}" for c, note in self.exceptions
        ]


def _q(rng: random.Random, nonzero=False, num=6, den=3) -> Fraction:
    """Small random rational; the draw shared by the 2D and 3D samplers."""
    while True:
        v = Fraction(rng.randint(-num, num), rng.randint(1, den))
        if not nonzero or v != 0:
            return v


# =============================================================================
# T1 rules (constant skew matrix, unit exponents; the conditions are e-free
# so these solutions persist for every constant-term pattern)
# =============================================================================


def _sample_l2i(rng) -> LVSystem:
    b1, a11, a22 = _q(rng), _q(rng, True), _q(rng, True)
    return make_system(
        b=(b1, -b1, _q(rng)),
        A=((a11, -2 * a22, 0), (-2 * a11, a22, 0), (_q(rng), _q(rng), _q(rng))),
        e=(_q(rng, True), _q(rng, True), _q(rng, True)),
    )


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


def _sample_l3_1(rng) -> LVSystem:
    b1, a11, a22 = _q(rng), _q(rng, True), _q(rng, True)
    return make_system(
        b=(b1, -b1, _q(rng)),
        A=((a11, -2 * a22, 0), (-2 * a11, a22, 0), (_q(rng), _q(rng), _q(rng))),
        e=(_q(rng, True), _q(rng, True), 0),
    )


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


def _sample_l4_1(rng) -> LVSystem:
    a22, a23, rho = _q(rng, True), _q(rng), _q(rng, True)
    return make_system(
        b=(0, _q(rng), _q(rng)),
        A=((0, 0, 0), (_q(rng), a22, a23), (_q(rng), rho * a22, rho * a23)),
        e=(_q(rng, True), 0, 0),
    )


def _sample_l4_2(rng) -> LVSystem:
    b1, a11, a12, a13, a23 = _q(rng), _q(rng), _q(rng), _q(rng), _q(rng, True)
    return make_system(
        b=(b1, 0, -b1),
        A=((a11, a12, a13), (0, 0, a23), (-a11, -a12, -a13)),
        e=(_q(rng, True), 0, 0),
    )


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


def _sample_l4_4(rng) -> LVSystem:
    while True:
        lam, b2, a21, a22, a13, a23 = _q(rng, True), *(_q(rng) for _ in range(5))
        if a13 - lam * a23 == 0:  # A33 with (beta, gamma) = (1, -lam)
            continue
        b1, a11, a12 = lam * b2, lam * a21, lam * a22
        return make_system(
            b=(b1, b2, -b1),
            A=((a11, a12, a13), (a21, a22, a23), (-a11, -a12, -a13)),
            e=(_q(rng, True), 0, 0),
        )


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


def _sample_l5_1(rng) -> LVSystem:
    a22, a23, rho = _q(rng, True), _q(rng), _q(rng, True)
    return make_system(
        b=(_q(rng, True), _q(rng), _q(rng)),
        A=((0, 0, 0), (_q(rng), a22, a23), (_q(rng), rho * a22, rho * a23)),
        e=(0, 0, 0),
    )


def _sample_l5_2(rng) -> LVSystem:
    a22, a23, rho = _q(rng, True), _q(rng), _q(rng, True)
    return make_system(
        b=(0, _q(rng), _q(rng)),
        A=((_q(rng, True), 0, 0), (_q(rng), a22, a23), (_q(rng), rho * a22, rho * a23)),
        e=(0, 0, 0),
    )


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


_ROWS_12, _ROWS_23 = DependentRows((0, 1)), DependentRows((1, 2))


def _match_l5_6(s: LVSystem, nullspaces: Optional[Callable] = None) -> list[Match]:
    """The rows of both pairs are homogeneous in (b, A, e), so scaling
    leaves their nullspaces, and the params taken from them, unchanged: the
    matcher is scale-free.  It reads the pairs' nullspaces from run_rules'
    table, which L4-3 and L5-5 share."""
    ns23 = _ROWS_23.nullspace(s, nullspaces)
    ns12 = _ROWS_12.nullspace(s, nullspaces)
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


def _l5_8c_rows() -> list[Callable]:
    """L5-8c's oracle rows at alpha = beta = gamma = 1 and e = 0, derived
    once, symbolic in l.  Each row is linear in b or in A; per side, a
    function (b, A, e, d, l) -> (m, r) that reads only l: m holds that
    side's rows at the exponents l, in the columns b1..b3 or a11..a33 row
    by row, and r is zero."""
    b, A, _ = _symbolic_system(3)
    l = tuple(map(SymPoly.sym, _L_NAMES))
    comps = residual_3d_generic((b, A, (0, 0, 0)), "3d-t2", (1, 1, 1), l)
    conds = [c for comp in comps for _, c in comp.items_sorted()]
    out = []
    for names in ([str(v) for v in b], [str(a) for row in A for a in row]):
        side = [c for c in conds if any((n, 1) in mono for mono in c.terms for n in names)]
        out.append(_affine_rows(side, names))
    return out


def _sample_l5_8c(rng) -> LVSystem:
    rule = next(r for r in RULES_3D if r.id == "L5-8c")
    brows, arows = _l5_8c_rows()
    while True:
        l = _q(rng), _q(rng), _q(rng)
        if len(set(l)) < 3 or 0 in l:
            continue
        # the conditions are linear in the 12 coefficients for fixed exponents
        bbasis = nullspace(brows(None, None, None, l=l)[0])
        abasis = nullspace(arows(None, None, None, l=l)[0])
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
        s = make_system(b=bvec, A=(avec[0:3], avec[3:6], avec[6:9]), e=(0, 0, 0))
        # keep only instances where the rule produces a nonconstant integral
        for m2 in rule.match(s):
            try:
                H = potential(gradient_targets_3d(s, *m2.ansatz))
            except ConstructionError:
                continue
            if not H.drop_constant().is_zero():
                return s


def _sample_triv3(rng) -> LVSystem:
    return make_system(
        b=(_q(rng), _q(rng), 0),
        A=((_q(rng), _q(rng), _q(rng)), (_q(rng), _q(rng), _q(rng)), (0, 0, 0)),
        e=(_q(rng), _q(rng), 0),
    )


# =============================================================================
# registry
# =============================================================================

def _direction_rule(*, printed: Optional[_PrintedVerdict] = None, notes=(), **fields) -> Rule:
    """A rule whose matcher is derived from its Ansatz template, with the
    audited verdict on its printed integral when the paper prints one."""
    notes = [*notes, *(printed.notes() if printed else ())]
    rule = Rule(match=None, compare_printed=printed, notes=notes, **fields)
    rule.match = _ConstantDirection(rule)
    return rule


RULES_3D: list[Rule] = [
    _direction_rule(
        id="L2-i",
        citation="3D T1 Ansatz, case alpha' != 0; conditions e-free",
        dim=3,
        pattern=None,
        ansatz=("3d-t1", (1, 0, 0), (1, 1, 1)),
        residuals=["b1+b2", "2*a11+a21", "2*a22+a12", "a13", "a23"],
        guards=["alpha' != 0"],
        sample=_sample_l2i,
        printed=_PrintedVerdict(_AGREES),
    ),
    _direction_rule(
        id="L2-ii",
        citation="3D T1 Ansatz, case alpha',beta' != 0",
        dim=3,
        pattern=None,
        ansatz=("3d-t1", ("alpha'", "beta'", 0), (1, 1, 1)),
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
        printed=_PrintedVerdict(_FAILS, ("a11*a22 == 0 and e1*a22 == 0", _AGREES)),
        notes=["printed formula has sign typos on the x1^2*x2 and x2 terms"],
    ),
    _direction_rule(
        id="L2-iii",
        citation="3D T1 Ansatz, case alpha',beta',gamma' != 0",
        dim=3,
        pattern=None,
        ansatz=("3d-t1", ("alpha'", "beta'", "gamma'"), (1, 1, 1)),
        residuals=[
            "b1",
            "b2",
            "b3",
            "a12+2*a22",
            "a13+2*a33",
            "a21+2*a11",
            "a23+2*a33",
            "a31+2*a11",
            "a32+2*a22",
        ],
        guards=["alpha' != 0", "beta' != 0", "gamma' != 0"],
        sample=_sample_l2iii,
        printed=_PrintedVerdict(_AGREES),
    ),
    _direction_rule(
        id="L3-1",
        citation="3D T2, e1,e2 != 0, e3 = 0, item 1 (2D-embedded integral)",
        dim=3,
        pattern=(True, True, False),
        ansatz=("3d-t2", (1, 0, 0), (1, 1, 0)),
        residuals=["b1+b2", "2*a11+a21", "a12+2*a22", "a13", "a23"],
        guards=[],
        sample=_sample_l3_1,
        printed=_PrintedVerdict(_AGREES),
    ),
    _direction_rule(
        id="L3-2",
        citation="3D T2, e1,e2 != 0, e3 = 0, item 2",
        dim=3,
        pattern=(True, True, False),
        ansatz=("3d-t2", (1, 1, -1), (1, 1, 1)),
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
        printed=_PrintedVerdict(_AGREES),
        notes=[
            "printed condition a12-a32=0 deviates: the oracle system requires "
            "a12-a22=0 (with a22+a32=0)"
        ],
    ),
    _direction_rule(
        id="L3-3",
        citation="3D T2, e1,e2 != 0, e3 = 0, item 3",
        dim=3,
        pattern=(True, True, False),
        ansatz=("3d-t2", (1, "l3", "-l3"), (1, 1, "l3")),
        residuals=[
            "b1-b2",
            "a11-a21",
            "a12-a22",
            "a13-a23",
            "b3*a11 - b1*a31",
            "b3*a12 - b1*a32",
            "b3*a13 - b1*a33",
            "b1 + b3*l3",
            "a11 + a31*l3",
            "a12 + a32*l3",
            "a13 + a33*l3",
        ],
        guards=["(b3, a31, a32, a33) != (0, 0, 0, 0)"],
        sample=_sample_l3_3,
        printed=_PrintedVerdict(
            "agrees: printed formula (with exact-solved l3) proportional to constructed integral"
        ),
        notes=[
            "printed defining equation b1 - b3*l3 = 0 has a sign typo; the "
            "exact solve uses b1 + b3*l3 = 0, consistent with the printed "
            "cross-conditions b3*a1i - b1*a3i = 0"
        ],
    ),
    _direction_rule(
        id="L4-1",
        citation="3D T2, e1 != 0, e2 = e3 = 0, item 1",
        dim=3,
        pattern=(True, False, False),
        ansatz=("3d-t2", ("alpha", "beta", 0), (1, 0, 0)),
        residuals=["b1", "a11", "a12", "a13", "a22*a33 - a23*a32"],
        guards=[],
        sample=_sample_l4_1,
        printed=_PrintedVerdict(_AGREES),
    ),
    _direction_rule(
        id="L4-2",
        citation="3D T2, e1 != 0, e2 = e3 = 0, item 2",
        dim=3,
        pattern=(True, False, False),
        ansatz=("3d-t2", (1, 0, -1), (1, 0, 0)),
        residuals=["b2", "a21", "a22", "b1+b3", "a11+a31", "a12+a32", "a13+a33"],
        guards=["a23 != 0"],
        sample=_sample_l4_2,
        printed=_PrintedVerdict(_AGREES),
    ),
    Rule(
        id="L4-3",
        citation="3D T2, e1 != 0, e2 = e3 = 0, item 3 (x1-free log integral)",
        dim=3,
        pattern=(True, False, False),
        match=DependentRows((1, 2), ("alpha", "beta"), log=True),
        residuals=["(b2,a21,a22,a23) proportional to (b3,a31,a32,a33)"],
        guards=[],
        sample=_sample_l4_3,
        notes=["integral is stated directly; it is not a T2 gradient"],
    ),
    _direction_rule(
        id="L4-4",
        citation="3D T2, e1 != 0, e2 = e3 = 0, item 4",
        dim=3,
        pattern=(True, False, False),
        ansatz=("3d-t2", ("-gamma", "beta", "gamma"), (1, 0, 0)),
        residuals=[
            "b1+b3",
            "a11+a31",
            "a12+a32",
            "a13+a33",
            "b1*a21 - b2*a11",
            "b1*a22 - b2*a12",
            "a11*a22 - a12*a21",
        ],
        guards=["A33 != 0"],
        sample=_sample_l4_4,
        printed=_PrintedVerdict(_AGREES),
    ),
    _direction_rule(
        id="L4-5",
        citation="3D T2, e1 != 0, e2 = e3 = 0, item 5",
        dim=3,
        pattern=(True, False, False),
        ansatz=("3d-t2", (1, -1, -1), (1, 0, 0)),
        residuals=["b1+b2", "b1+b3", "a11+a21", "a11+a31", "a12+a22", "a13+a33"],
        guards=["a12+a32 != 0", "a13+a23 != 0"],
        sample=_sample_l4_5,
        printed=_PrintedVerdict(_FAILS),
        notes=["printed formula drops the x1 factors of the quadratic terms"],
    ),
    _direction_rule(
        id="L4-6",
        citation="3D T2, e1 != 0, e2 = e3 = 0, item 6",
        dim=3,
        pattern=(True, False, False),
        ansatz=("3d-t2", (1, 0, -1), (1, "l2", 0)),
        residuals=["b2", "a21", "a22", "b1+b3", "a11+a31", "a12+a32"],
        guards=["a23 != 0", "a13+a33 != 0"],
        sample=_sample_l4_6,
        printed=_PrintedVerdict(_AGREES),
        notes=["printed condition b1=0 deviates: the oracle system requires b2=0"],
    ),
    _direction_rule(
        id="L4-7",
        citation="3D T2, e1 != 0, e2 = e3 = 0, item 7",
        dim=3,
        pattern=(True, False, False),
        ansatz=("3d-t2", ("l2", "l3", 0), (1, "l2", "l3")),
        residuals=[
            "a12",
            "a13",
            "a22*(-b1*a31+2*b3*a11) + a32*(-2*b2*a11+b1*a21)",
            "a23*(-b1*a31+2*b3*a11) + a33*(-2*b2*a11+b1*a21)",
            "B2 + b1",
            "A21 + 2*a11",
            "A22",
            "A23",
        ],
        guards=["(l2, l3) != (0, 0)"],
        sample=_sample_l4_7,
        printed=_PrintedVerdict(_AGREES),
    ),
    _direction_rule(
        id="L4-8",
        citation="3D T2, e1 != 0, e2 = e3 = 0, item 8",
        dim=3,
        pattern=(True, False, False),
        ansatz=("3d-t2", ("-gamma", "beta", "gamma"), (1, "l2", "l3")),
        residuals=[
            "b1+b3",
            "a11+a31",
            "a12+a32",
            "b1*a21 - b2*a11",
            "b1*a22 - b2*a12",
            "a11*a22 - a12*a21",
            "B3",
            "A31",
            "A32",
        ],
        guards=["a13+a33 != 0", "A23 != 0", "A33 != 0", "gamma != 0"],
        sample=_sample_l4_8,
        printed=_PrintedVerdict(_AGREES),
    ),
    _direction_rule(
        id="L4-9",
        citation="3D T2, e1 != 0, e2 = e3 = 0, item 9",
        dim=3,
        pattern=(True, False, False),
        ansatz=("3d-t2", (1, -1, -1), (1, "l2", "-l2")),
        residuals=[
            "b1+b3",
            "b2-b3",
            "a11+a31",
            "a21-a31",
            "(a13+a33)(a22-a32) - (a12+a22)(a23-a33)",
        ],
        guards=["a12+a22 != 0", "a22-a32 != 0", "a13+a33 != 0", "a23-a33 != 0"],
        sample=_sample_l4_9,
        printed=_PrintedVerdict(
            _AGREES, ("l3*(l3+1) == 0", "printed formula undefined here (zero denominator)")
        ),
    ),
    _direction_rule(
        id="L5-1",
        citation="3D T2, e = 0, item 1",
        dim=3,
        pattern=(False, False, False),
        ansatz=("3d-t2", ("alpha", "beta", 0), (0, 0, 0)),
        residuals=["a11", "a12", "a13", "a22*a33 - a32*a23"],
        guards=["b1 != 0"],
        sample=_sample_l5_1,
        printed=_PrintedVerdict(_AGREES),
    ),
    _direction_rule(
        id="L5-2",
        citation="3D T2, e = 0, item 2",
        dim=3,
        pattern=(False, False, False),
        ansatz=("3d-t2", ("alpha", "beta", 0), (-1, 0, 0)),
        residuals=["b1", "a12", "a13", "a22*a33 - a32*a23"],
        guards=["a11 != 0"],
        sample=_sample_l5_2,
        printed=_PrintedVerdict(_AGREES),
    ),
    _direction_rule(
        id="L5-3",
        citation="3D T2, e = 0, item 3",
        dim=3,
        pattern=(False, False, False),
        ansatz=("3d-t2", ("alpha", "beta", "-beta"), (-1, 0, 0)),
        residuals=["b1-b2", "a12-a22", "a13-a23", "b1*a33 - b3*a13"],
        guards=["A22 != 0", "(A11, A31) != (0, 0)"],
        sample=_sample_l5_3,
        printed=_PrintedVerdict(_AGREES),
    ),
    _direction_rule(
        id="L5-4",
        citation="3D T2, e = 0, item 4",
        dim=3,
        pattern=(False, False, False),
        ansatz=("3d-t2", (1, -1, 1), (-1, 0, 0)),
        residuals=["b1-b2", "b1-b3", "a12-a22", "a13-a33"],
        guards=["(a11-a31, a11-a21) != (0,0)", "a22-a32 != 0", "a23-a33 != 0"],
        sample=_sample_l5_4,
        printed=_PrintedVerdict(_AGREES),
    ),
    Rule(
        id="L5-5",
        citation="3D T2, e = 0, item 5 (monomial integral)",
        dim=3,
        pattern=(False, False, False),
        match=DependentRows((0, 1), ("beta", "gamma")),
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
    _direction_rule(
        id="L5-7a",
        citation="3D T2, e = 0, item 7a",
        dim=3,
        pattern=(False, False, False),
        ansatz=("3d-t2", ("-beta", "beta", "gamma"), ("l1", "l2", 0)),
        residuals=[
            "b2-b3",
            "a21-a31",
            "b1*a21 - b2*a11",
            "b1*a22 - b2*a12",
            "a11*a22 - a12*a21",
            "B3",
            "A31",
            "A32",
        ],
        guards=["A33 != 0", "A13 != 0", "A23 != 0", "A12 != 0"],
        sample=_sample_l5_7a,
        printed=_PrintedVerdict(
            "deviates: printed l2 = -A13/A33 but the exact solve gives l2 = A13/A33 "
            "(sign typo in the printed exponent)"
        ),
    ),
    _direction_rule(
        id="L5-7b",
        citation="3D T2, e = 0, item 7b",
        dim=3,
        pattern=(False, False, False),
        ansatz=("3d-t2", (0, "beta", "gamma"), ("l1", "l2", 0)),
        residuals=[
            "a31",
            "a32",
            "b1*a21 - b2*a11",
            "b1*a22 - b2*a12",
            "a11*a22 - a12*a21",
            "B3",
            "A31",
            "A32",
        ],
        guards=["b3 != 0", "a33 != 0", "A33 != 0"],
        sample=_sample_l5_7b,
    ),
    _direction_rule(
        id="L5-7c",
        citation="3D T2, e = 0, item 7c",
        dim=3,
        pattern=(False, False, False),
        ansatz=("3d-t2", (1, -1, 1), ("l1", "l2", 0)),
        residuals=["b1-b2", "b1-b3", "a11-a21", "a12-a22"],
        guards=[
            "a11-a31 != 0",
            "a12-a32 != 0",
            "a13-a33 != 0",
            "a23-a33 != 0",
            "a13-a23 != 0",
        ],
        sample=_sample_l5_7c,
        printed=_PrintedVerdict(_FAILS, ("2*l1+1 == 0 and 2*l2+1 == 0", _AGREES)),
        notes=[
            "printed formula is garbled: the exact construction gives "
            "x1^l1 x2^l2 ((a11-a31)x1/l2 + (a12-a32)x2/(l2+1) + (a23-a13)x3)"
        ],
    ),
    _direction_rule(
        id="L5-7d",
        citation="3D T2, e = 0, item 7d",
        dim=3,
        pattern=(False, False, False),
        ansatz=("3d-t2", (1, 1, 1), ("l1", "l2", 0)),
        residuals=["b1+b2", "a11+a21", "a12+a22", "a12-a32", "(b1-b3)*a23 - (b2+b3)*a13"],
        guards=["a13+a23 != 0"],
        sample=_sample_l5_7d,
        printed=_PrintedVerdict(
            "deviates: printed l2 = -(a33-a13)(a13+a23) is missing the division of the "
            "exact l2 = -(a33-a13)/(a13+a23)",
            ("(a33-a13)*((a13+a23)^2 - 1) == 0", "agrees: printed l2 formula matches exact solve"),
        ),
    ),
    _direction_rule(
        id="L5-8a",
        citation="3D T2, e = 0, item 8a",
        dim=3,
        pattern=(False, False, False),
        ansatz=("3d-t2", ("l2", "l3", 0), ("l1", "l2", "l3")),
        residuals=[
            "a12",
            "a13",
            "a22*a33 - a32*a23",
            "b1*l1 + B2",
            "a11*l1 + a11 + A21",
            "A22",
            "A23",
        ],
        guards=["b1^2 + a11^2 != 0", "(l2, l3) != (0, 0) or (b1 != 0 and l1 != 0)"],
        sample=_sample_l5_8a,
        printed=_PrintedVerdict(
            _AGREES + "; printed l2,l3 formulas give (l2/l1, -l3/l1) for the exact (l2, l3)",
            ("b1*l1 == 0 or (a22, a23, a32, a33) == (0, 0, 0, 0)", _AGREES),
        ),
    ),
    _direction_rule(
        id="L5-8b",
        citation="3D T2, e = 0, item 8b",
        dim=3,
        pattern=(False, False, False),
        ansatz=("3d-t2", (-1, 1, 0), ("l1", "l2", "-1-l2")),
        residuals=["b1", "a11", "b2-b3", "a21-a31"],
        guards=[
            "a13 != 0",
            "a23 != 0",
            "a22-a32 != 0",
            "a23-a33 != 0",
            "a12*(a23-a33) - a13*(a22-a32) != 0",
        ],
        sample=_sample_l5_8b,
        printed=_PrintedVerdict(
            "deviates: printed l2 formula gives the exact l3 (l2/l3 swapped in print)",
            ("l2 == l3", "agrees: printed l2 formula matches exact solve"),
        ),
    ),
    _direction_rule(
        id="L5-8c",
        citation="3D T2, e = 0, item 8c (alpha = beta = gamma = 1, exact exponent solve)",
        dim=3,
        pattern=(False, False, False),
        ansatz=("3d-t2", (1, 1, 1), ("l1", "l2", "l3")),
        sample=_sample_l5_8c,
        printed=_PrintedVerdict(
            "agrees: the printed exponent formulas defined here match the exact solve",
            (
                "(A11*A22 - A21*A12, A31*A23 - A21*A33) == (0, 0)",
                "printed closed forms undefined here (zero denominators); exact solve used",
            ),
        ),
        notes=[
            "the 12-row condition system at alpha=beta=gamma=1 is consistent",
            "printed condition list is fragmented; implemented by the exact "
            "solve of the condition system with alpha=beta=gamma=1",
        ],
    ),
    Rule(
        id="R3D-TRIV",
        citation="trivial integral x_i when dx_i/dt vanishes identically",
        dim=3,
        pattern=(None, None, False),
        match=DependentRows((2,)),
        residuals=["b3", "a31", "a32", "a33"],
        guards=["e3 = 0"],
        sample=_sample_triv3,
    ),
]


SAMPLERS_3D = {r.id: r.sample for r in RULES_3D}


def detect3d(s: LVSystem) -> list[Detection]:
    """All catalog detections for a 3D system (exact matching)."""
    return detect3d_full(s)[0]


def detect3d_full(s: LVSystem) -> tuple[list[Detection], list[Candidate]]:
    if s.dim != 3:
        raise ValueError("detect3d needs a 3D system")
    return run_rules(s, RULES_3D)
