"""Exact potential reconstruction for gradient fields of the Ansatz family.

The gradient targets T f are sums of generalized monomials
c * prod_i x_i^(p_i) with rational p_i.  Antiderivatives can pick up ln|x_i|
factors (when an exponent passes through -1), so the working algebra is
poly.GenPoly, sums of c * prod_i x_i^(p_i) * ln|x_i|^(k_i) -- the same
algebra in which the oracle expands the curl residual, so the targets are
built on the oracle's field polynomials without conversion.

Differentiation, integration in one variable, multiplication and the zero test
are all exact here, which gives two strong guarantees used by the catalog:
a reconstructed H satisfies grad H = T f *identically*, and any candidate H
can be certified by an exact symbolic Lie derivative f . grad H == 0.
"""

from __future__ import annotations

from fractions import Fraction

from .expr import Add, Const, Expr, LnAbs, Mul, Pow, Var
from .model import LVSystem, lift_exact
from .poly import GenPoly


class ConstructionError(RuntimeError):
    """Potential reconstruction failed; the field was not curl-free."""


def potential(components: list[GenPoly]) -> GenPoly:
    """Reconstruct H with grad H = components, assuming the field is exact.

    Sequential reconstruction: integrate the first component in x1, correct
    with the next components, and verify the final gradient identically; a
    mismatch raises ConstructionError.
    """
    n = components[0].nvars
    H = GenPoly.zero(n)
    for i in range(n):
        rem = components[i] - H.diff(i)
        for j in range(i):
            if rem.depends_on(j):
                raise ConstructionError(
                    f"remainder for x{i+1} still depends on x{j+1}: field not exact"
                )
        H = H + rem.integrate(i)
    for i in range(n):
        if not (H.diff(i) - components[i]).is_zero():
            raise ConstructionError("gradient mismatch after reconstruction")
    return H


def gradient_targets_3d(s: LVSystem, kind: str, abg, l) -> list[GenPoly]:
    """T f as GenPoly components: grad H targets for the 3D Ansatz."""
    from .oracle import _t_components  # internal reuse

    sx = lift_exact(s)
    g = _t_components(3, sx.b, sx.A, sx.e, kind, tuple(Fraction(v) for v in abg))
    R = GenPoly.term(3, 1, tuple(Fraction(v) - 1 for v in l))
    return [R * gi for gi in g]


def gradient_targets_2d(s: LVSystem, l) -> list[GenPoly]:
    """(T f) = (-R f2, R f1) for the 2D monomial chart R = x1^(l1-1) x2^(l2-1)."""
    from .oracle import _f_laurent

    sx = lift_exact(s)
    f1 = _f_laurent(2, sx.b, sx.A, sx.e, 0)
    f2 = _f_laurent(2, sx.b, sx.A, sx.e, 1)
    R = GenPoly.term(2, 1, tuple(Fraction(v) - 1 for v in l))
    return [-(R * f2), R * f1]


def field_genpoly(s: LVSystem) -> list[GenPoly]:
    from .oracle import _f_laurent

    sx = lift_exact(s)
    return [_f_laurent(sx.dim, sx.b, sx.A, sx.e, i) for i in range(sx.dim)]


def lie_genpoly(H: GenPoly, s: LVSystem) -> GenPoly:
    """Exact symbolic Lie derivative f . grad H in the GenPoly algebra."""
    f = field_genpoly(s)
    out = GenPoly.zero(H.nvars)
    for i in range(H.nvars):
        out = out + f[i] * H.diff(i)
    return out


def genpoly_to_expr(H: GenPoly) -> Expr:
    """Render as an Expr (sum of coefficient * powers * log factors)."""
    if H.is_zero():
        return Const(Fraction(0))
    terms = []
    for (p, k), c in H.items_sorted():
        factors: list[Expr] = []
        if c != 1 or (all(q == 0 for q in p) and all(q == 0 for q in k)):
            factors.append(Const(c))
        for i, q in enumerate(p):
            if q == 0:
                continue
            factors.append(Var(i) if q == 1 else Pow(Var(i), q))
        for i, q in enumerate(k):
            for _ in range(q):
                factors.append(LnAbs(Var(i)))
        terms.append(factors[0] if len(factors) == 1 else Mul(tuple(factors)))
    return terms[0] if len(terms) == 1 else Add(tuple(terms))


def normalize_for_output(H: GenPoly) -> GenPoly:
    """Drop the integration constant and scale to primitive integer-like
    coefficients with a positive leading term (deterministic output form)."""
    H = H.drop_constant()
    items = H.items_sorted()
    if not items:
        return H
    from math import gcd

    nums = [abs(c.numerator) for _, c in items]
    dens = [c.denominator for _, c in items]
    g = 0
    for v in nums:
        g = gcd(g, v)
    m = 1
    for d in dens:
        m = m * d // gcd(m, d)
    scale = Fraction(m, g if g else 1)
    if items[0][1] < 0:
        scale = -scale
    return GenPoly(H.nvars, {key: c * scale for key, c in H.terms.items()})
