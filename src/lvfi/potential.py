"""Exact potential reconstruction for gradient fields of the Ansatz family.

The gradient targets T f are sums of generalized monomials
c * prod_i x_i^(p_i) with rational p_i.  Antiderivatives can pick up ln|x_i|
factors (when an exponent passes through -1), so the working algebra is
poly.GenPoly, sums of c * prod_i x_i^(p_i) * ln|x_i|^(k_i) -- the same
algebra in which the oracle expands the curl residual.  The targets are the
oracle's T f/R (oracle._t_components) with every exponent shifted by l - 1:
R = x^(l-1) has the coefficient 1, so no product is taken.

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
from .linalg import primitive
from .model import LVSystem, lift_exact
from .oracle import _t_components
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


def _times_factor(g: list[dict], l) -> list[GenPoly]:
    """R g for R = x^(l-1) with the coefficient 1: every exponent of the
    components g (oracle._t_components) shifted by l - 1, no product."""
    lm1 = tuple(canonical(v) - 1 for v in l)
    z = (0,) * len(lm1)
    return [
        GenPoly._of(len(lm1), {(tuple(map(add, p, lm1)), z): c for p, c in gi.items()})
        for gi in g
    ]


def gradient_targets_3d(s: LVSystem, kind: str, abg, l) -> list[GenPoly]:
    """T f as GenPoly components: grad H targets for the 3D Ansatz."""
    sx = lift_exact(s)
    g = _t_components(3, sx.b, sx.A, sx.e, kind, tuple(map(canonical, abg)))
    return _times_factor(g, l)


def gradient_targets_2d(s: LVSystem, l) -> list[GenPoly]:
    """(T f) = (-R f2, R f1) for the 2D monomial chart R = x1^(l1-1) x2^(l2-1)."""
    sx = lift_exact(s)
    return _times_factor(_t_components(2, sx.b, sx.A, sx.e, "2d-exponents", (1,)), l)


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
    if H.is_zero():
        return H
    sign = -1 if H.terms[min(H.terms)] < 0 else 1
    coefs = primitive(list(H.terms.values()))
    return GenPoly(H.nvars, {k: Fraction(sign * c) for k, c in zip(H.terms, coefs)})
