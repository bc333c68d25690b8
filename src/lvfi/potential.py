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

The detection gate calls these on the system's primitive-integer view
(detection.integer_view), with the Ansatz direction scaled to primitive
integers and R = x^(l-1) held with the int coefficient 1, so T f has int
coefficients and only the antiderivative divides (poly.quotient, exact).
Scaling (b, A, e) by c > 0 only rescales time: T f, H and the Lie
derivative are scaled by a positive constant, every zero test is unchanged,
and normalize_for_output, which every emitted integral passes through,
removes the constant.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .expr import Add, Const, Expr, LnAbs, Mul, Pow, Var
from .model import LVSystem, lift_exact
from .poly import GenPoly, _acc, canonical


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


def _factor(nvars: int, l) -> GenPoly:
    """R = x^(l-1) with the coefficient 1, an int."""
    powers = tuple(canonical(v) - 1 for v in l)
    return GenPoly._of(nvars, {(powers, (0,) * nvars): 1})


def gradient_targets_3d(s: LVSystem, kind: str, abg, l) -> list[GenPoly]:
    """T f as GenPoly components: grad H targets for the 3D Ansatz."""
    from .oracle import _t_components  # internal reuse

    sx = lift_exact(s)
    g = _t_components(3, sx.b, sx.A, sx.e, kind, tuple(map(canonical, abg)))
    R = _factor(3, l)
    return [R * gi for gi in g]


def gradient_targets_2d(s: LVSystem, l) -> list[GenPoly]:
    """(T f) = (-R f2, R f1) for the 2D monomial chart R = x1^(l1-1) x2^(l2-1)."""
    from .oracle import _f_laurent

    sx = lift_exact(s)
    f1 = _f_laurent(2, sx.b, sx.A, sx.e, 0)
    f2 = _f_laurent(2, sx.b, sx.A, sx.e, 1)
    R = _factor(2, l)
    return [-(R * f2), R * f1]


def lie_genpoly(H: GenPoly, s: LVSystem) -> GenPoly:
    """Exact symbolic Lie derivative f . grad H in the GenPoly algebra, in
    one pass over H's terms.

    In Euler form f_i d/dx_i = (b_i + sum_j a_ij x_j) theta_i + e_i d/dx_i,
    with theta_i = x_i d/dx_i.  On a term c x^p ln^k, theta_i gives
    c p_i x^p ln^k + c k_i x^p ln^(k - u_i) (u_i the i-th unit vector), and
    d/dx_i gives the same two terms times x^(-u_i); b_i keeps the powers,
    a_ij adds u_j and e_i subtracts u_i.  So the field is never built as a
    GenPoly and no product of GenPolys is taken.
    """
    sx = lift_exact(s)
    n = H.nvars
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    # per coordinate i: the nonzero (power shift, coefficient) pairs of f_i/x_i
    # on theta_i, then of e_i on d/dx_i
    shifts = []
    for i in range(n):
        row = [((0,) * n, sx.b[i])] + [(units[j], sx.A[i][j]) for j in range(n)]
        row.append((tuple(-u for u in units[i]), sx.e[i]))
        shifts.append([(d, c) for d, c in row if c])
    out: dict = {}
    for (p, k), c in H.terms.items():
        for i in range(n):
            pi, ki = p[i], k[i]
            if not pi and not ki:
                continue
            parts = []
            if pi:
                parts.append((k, c * pi))
            if ki:
                parts.append((tuple(q - u for q, u in zip(k, units[i])), c * ki))
            for d, fc in shifts[i]:
                np = tuple(map(add, p, d))
                for nk, tc in parts:
                    _acc(out, (np, nk), tc * fc)
    return GenPoly._of(n, out)


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
    coefficients with a positive leading term (deterministic output form).
    It is the same for every nonzero multiple of H, so it removes the scale
    of an integral built on a system's integer view.  The coefficients of
    the result are Fractions."""
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
