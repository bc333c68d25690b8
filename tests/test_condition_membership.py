"""Exact equivalence check between a rule's printed residuals and the
condition system derived from scratch by the symbolic oracle.

For rules whose Ansatz direction and exponents are all constants, the
oracle rows specialized to the rule's direction, exponents and zero
constant terms are linear in the system coefficients, and so are the
printed residuals.  Each row lies in the rational-linear span of the
residuals and each residual in the span of the rows, so a system satisfies
the Ansatz exactly when every printed residual vanishes.  Direction,
exponents, pattern and residuals are read from the rules themselves.
"""

from fractions import Fraction

import pytest

from lvfi.catalog3d import RULES_3D
from lvfi.detection import condition_function, condition_source
from lvfi.linalg import as_matrix, solve_constrained
from lvfi.oracle import AnsatzSpec, derive_conditions
from lvfi.poly import SymPoly

F = Fraction
S = SymPoly.sym

B = tuple(S(f"b{i}") for i in (1, 2, 3))
A = tuple(tuple(S(f"a{i}{j}") for j in (1, 2, 3)) for i in (1, 2, 3))
E = tuple(S(f"e{i}") for i in (1, 2, 3))

RULES = {
    r.id: r
    for r in RULES_3D
    if r.ansatz and not any(isinstance(t, str) for t in r.ansatz[1] + r.ansatz[2])
}


def _residuals(rule) -> list[SymPoly]:
    return [condition_function(condition_source(t))(B, A, E) for t in rule.residuals]


def _specialized_rows(rule) -> list[SymPoly]:
    kind, abg, l = rule.ansatz
    values = dict(zip(("al", "be", "ga", "l1", "l2", "l3"), map(F, abg + l)))
    for i, want in enumerate(rule.pattern or ()):
        if want is False:
            values[f"e{i + 1}"] = F(0)
    rows = derive_conditions(AnsatzSpec(kind))
    return [p for p in (row.poly.subs_partial(values) for row in rows) if p]


def _in_linear_span(target: SymPoly, basis: list[SymPoly]) -> bool:
    monomials = sorted(
        {m for p in basis for m in p.terms} | set(target.terms)
    )
    cols = [[p.terms.get(m, F(0)) for m in monomials] for p in basis]
    rows = as_matrix(list(zip(*cols))) if cols else as_matrix([[F(0)]] * len(monomials))
    rhs = [target.terms.get(m, F(0)) for m in monomials]
    out = solve_constrained(rows, rhs)
    return out.status in ("unique", "underdetermined")


def test_constant_exponent_rules_are_read_from_the_catalog():
    assert sorted(RULES) == ["L2-i", "L3-1", "L3-2", "L4-2", "L4-5", "L5-4"]


@pytest.mark.parametrize("rule_id", sorted(RULES))
def test_specialized_conditions_lie_in_residual_span(rule_id):
    rule = RULES[rule_id]
    residuals = _residuals(rule)
    for row in _specialized_rows(rule):
        assert _in_linear_span(row, residuals), (rule_id, str(row))


@pytest.mark.parametrize("rule_id", sorted(RULES))
def test_residuals_lie_in_specialized_condition_span(rule_id):
    rule = RULES[rule_id]
    rows = _specialized_rows(rule)
    for text, residual in zip(rule.residuals, _residuals(rule)):
        assert _in_linear_span(residual, rows), (rule_id, text)
