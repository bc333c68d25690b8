import random
from fractions import Fraction

import pytest

from lvfi import expr as ex
from lvfi.linalg import Mat, _echelon
from lvfi.model import FLOAT, RATIONAL, LVSystem, make_system
from lvfi.poly import GenPoly, SymPoly, quotient, ratio

from digest_corpus import rand_fraction  # noqa: F401  (shared by the tests)


def same_integral(p, q) -> bool:
    """p = c q + const for some c != 0 (GenPolys): the nonconstant terms
    are proportional, the test the printed-form audit makes
    (printed_forms.cmp_against)."""
    return ratio(p.drop_constant().terms, q.drop_constant().terms) is not None


def normalized(H: GenPoly) -> GenPoly:
    """H divided by the coefficient of its first term in canonical order."""
    items = H.items_sorted()
    if not items:
        return H
    lead = items[0][1]
    return GenPoly._of(H.nvars, {k: quotient(c, lead) for k, c in H.terms.items()})


def shift(g: GenPoly, i: int, k) -> GenPoly:
    """g times x_i^k."""
    return GenPoly._of(
        g.nvars,
        {
            (tuple(q + k * int(j == i) for j, q in enumerate(p)), lg): c
            for (p, lg), c in g.terms.items()
        },
    )


def subs_partial(p: SymPoly, values: dict) -> SymPoly:
    """p with Fractions substituted for some of its symbols."""
    out = SymPoly()
    for m, c in p.terms.items():
        coef, rest = c, []
        for name, k in m:
            if name in values:
                coef *= Fraction(values[name]) ** k
            else:
                rest.append((name, k))
        out = out + SymPoly({tuple(sorted(rest)): coef})
    return out


def as_matrix(rows) -> Mat:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def rank(m: Mat) -> int:
    """The rank of m from the row reduction linalg.nullspace runs, which
    stops at full column rank."""
    return len(_echelon(m, len(m[0]) if m else 0))


def to_float(s: LVSystem) -> tuple[LVSystem, bool]:
    """Float copy of a system, and whether converting a rational one lost
    precision."""
    lossy = s.kind == RATIONAL and any(Fraction(float(v)) != v for v in s.entries())
    return make_system(s.b, s.A, s.e, kind=FLOAT), lossy


def slowed(s, mu=Fraction(1, 8)):
    """Scale (b, A, e) jointly by mu: a time reparameterization that leaves
    every rule's condition manifold invariant but keeps the flow from running
    off within t <= 10 (instances stay on-manifold, exactly)."""
    return make_system(
        b=tuple(mu * v for v in s.b),
        A=tuple(tuple(mu * v for v in row) for row in s.A),
        e=tuple(mu * v for v in s.e),
    )


def random_expr(rng: random.Random, dim: int, depth: int = 3) -> ex.Expr:
    """Random expression safe to evaluate on (0.1, 10)^dim.

    Powers use small rational exponents on bare variables (positive there) and
    integer exponents elsewhere; Exp arguments stay small to avoid overflow in
    finite-difference comparisons.
    """
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return ex.Const(rand_fraction(rng))
        return ex.Var(rng.randrange(dim))
    kind = rng.choice(["add", "mul", "pow", "ln", "exp", "powvar"])
    if kind == "add":
        n = rng.randint(2, 3)
        return ex.Add(tuple(random_expr(rng, dim, depth - 1) for _ in range(n)))
    if kind == "mul":
        n = rng.randint(2, 3)
        return ex.Mul(tuple(random_expr(rng, dim, depth - 1) for _ in range(n)))
    if kind == "pow":
        return ex.Pow(random_expr(rng, dim, depth - 1), rng.randint(1, 3))
    if kind == "powvar":
        p = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return ex.Pow(ex.Var(rng.randrange(dim)), p)
    if kind == "ln":
        return ex.LnAbs(ex.Var(rng.randrange(dim)))
    # exp of a small linear combination
    coef = Fraction(rng.randint(-2, 2), 10)
    return ex.Exp(ex.Mul((ex.Const(coef), ex.Var(rng.randrange(dim)))))


@pytest.fixture
def rng():
    return random.Random(20240817)
