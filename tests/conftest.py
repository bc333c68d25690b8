import random
from fractions import Fraction

import pytest

from lvfi import expr as ex
from lvfi.model import make_system


def rand_fraction(rng, nonzero=False, num=6, den=3):
    while True:
        v = Fraction(rng.randint(-num, num), rng.randint(1, den))
        if not nonzero or v != 0:
            return v


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
