"""Independent curl-residual oracle for the integrating-factor Ansatz family.

For R = exp(c1*x1) * x1^(l1-1) * exp(c2*x2) * x2^(l2-1) (2D) or the monomial
R = x1^(l1-1) x2^(l2-1) x3^(l3-1) with the skew matrices

    T1 = R * [[0, -a', -b'], [a', 0, -g'], [b', g', 0]]
    T2 = R * [[0, -a*x3, -b*x2], [a*x3, 0, -g*x1], [b*x2, g*x1, 0]]

the condition curl(T f) = 0 divides through by R (logarithmic-derivative
trick: only the exponents enter coefficients) and becomes a Laurent polynomial
identity, held in poly.GenPoly with integer exponents.  The zero polynomial
is decided in exact rational arithmetic; with symbolic coefficients the same
expansion yields the parameter condition systems from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import LVSystem, lift_exact
from .poly import GenPoly, SymPoly


class AnsatzError(ValueError):
    """The requested Ansatz chart is undefined for this system."""


@dataclass(frozen=True)
class AnsatzSpec:
    """Which Ansatz family a residual refers to."""

    kind: str  # "2d-separable" | "3d-t1" | "3d-t2"

    def __post_init__(self):
        if self.kind not in ("2d-separable", "3d-t1", "3d-t2"):
            raise ValueError(f"unknown ansatz kind {self.kind!r}")


T1 = AnsatzSpec("3d-t1")
T2 = AnsatzSpec("3d-t2")


def _f_laurent(nvars, b, A, e, i) -> GenPoly:
    """f_i = x_i(b_i + sum_j a_ij x_j) + e_i as a Laurent polynomial."""
    zero = (0,) * nvars  # no log factors
    terms = {}
    ei_ = (tuple(int(k == i) for k in range(nvars)), zero)
    terms[ei_] = b[i]
    for j in range(nvars):
        ej = (tuple(int(k == i) + int(k == j) for k in range(nvars)), zero)
        c = A[i][j]
        prev = terms.get(ej)
        terms[ej] = c if prev is None else prev + c
    const = (zero, zero)
    prev = terms.get(const)
    terms[const] = e[i] if prev is None else prev + e[i]
    return GenPoly(nvars, terms)


def _dtilde(g: GenPoly, j: int, lj_minus_1, cj=None) -> GenPoly:
    """D_j g = dg/dx_j + (l_j - 1) g / x_j (+ c_j g for exponential factors)."""
    out = g.diff(j) + g.shift(j, -1).scale(lj_minus_1)
    if cj is not None and cj:
        out = out + g.scale(cj)
    return out


def residual_2d_exponents(s_coeffs, l1, l2, c1=None, c2=None) -> GenPoly:
    """div(R f)/R for R = exp(c1 x1 + c2 x2) x1^(l1-1) x2^(l2-1).

    s_coeffs is (b, A, e) with entries in a common coefficient ring; the
    exponent parameters enter only through l_i - 1 and c_i.
    """
    b, A, e = s_coeffs
    f1 = _f_laurent(2, b, A, e, 0)
    f2 = _f_laurent(2, b, A, e, 1)
    return _dtilde(f1, 0, l1 - 1, c1) + _dtilde(f2, 1, l2 - 1, c2)


def _coeffs_of(s: LVSystem):
    s = lift_exact(s)
    return s.b, s.A, s.e


def residual_2d(s: LVSystem, alpha, beta, gamma) -> GenPoly:
    """2D residual in the separable-Ansatz chart A = exp(a x1/a12) x1^(b/a12),
    B = exp(-a x2/a21) x2^(g/a21); requires a12 != 0 and a21 != 0."""
    if s.dim != 2:
        raise ValueError("residual_2d needs a 2D system")
    b, A, e = _coeffs_of(s)
    a12, a21 = A[0][1], A[1][0]
    if a12 == 0 or a21 == 0:
        raise AnsatzError("separable Ansatz undefined: a12 = 0 or a21 = 0")
    alpha, beta, gamma = Fraction(alpha), Fraction(beta), Fraction(gamma)
    l1 = beta / a12 + 1
    l2 = gamma / a21 + 1
    return residual_2d_exponents((b, A, e), l1, l2, alpha / a12, -alpha / a21)


def _t_components(nvars, b, A, e, kind: str, abg):
    """(T f) without the R factor, per Ansatz kind."""
    f = [_f_laurent(nvars, b, A, e, i) for i in range(nvars)]
    z = (0,) * nvars
    weights = (z, z, z) if kind == "3d-t1" else ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    w12, w13, w23 = (GenPoly(nvars, {(p, z): c}) for p, c in zip(weights, abg))
    g1 = -(w12 * f[1]) - (w13 * f[2])
    g2 = (w12 * f[0]) - (w23 * f[2])
    g3 = (w13 * f[0]) + (w23 * f[1])
    return g1, g2, g3


def residual_3d(s: LVSystem, spec: AnsatzSpec, abg, l) -> list[GenPoly]:
    """The three components of curl(T f)/R, exact Laurent polynomials."""
    if s.dim != 3:
        raise ValueError("residual_3d needs a 3D system")
    if spec.kind not in ("3d-t1", "3d-t2"):
        raise ValueError(f"3D residual needs a 3D ansatz, got {spec.kind}")
    b, A, e = _coeffs_of(s)
    abg = tuple(Fraction(v) for v in abg)
    l = tuple(Fraction(v) for v in l)
    return residual_3d_generic((b, A, e), spec.kind, abg, l)


def residual_3d_generic(s_coeffs, kind: str, abg, l) -> list[GenPoly]:
    b, A, e = s_coeffs
    g1, g2, g3 = _t_components(3, b, A, e, kind, abg)
    lm1 = [li - 1 for li in l]
    c1 = _dtilde(g3, 1, lm1[1]) - _dtilde(g2, 2, lm1[2])
    c2 = _dtilde(g1, 2, lm1[2]) - _dtilde(g3, 0, lm1[0])
    c3 = _dtilde(g2, 0, lm1[0]) - _dtilde(g1, 1, lm1[1])
    return [c1, c2, c3]


# -- symbolic condition derivation -------------------------------------------


@dataclass(frozen=True)
class ConditionRow:
    """One coefficient-vanishing equation of the expanded curl residual."""

    component: int  # residual component index (0 for the 2D scalar)
    exponents: tuple[int, ...]
    poly: SymPoly


def _symbolic_system(dim: int):
    S = SymPoly.sym
    b = tuple(S(f"b{i+1}") for i in range(dim))
    A = tuple(tuple(S(f"a{i+1}{j+1}") for j in range(dim)) for i in range(dim))
    e = tuple(S(f"e{i+1}") for i in range(dim))
    return b, A, e


def derive_conditions(spec: AnsatzSpec) -> list[ConditionRow]:
    """Expand the residual with fully symbolic coefficients and collect the
    coefficient-vanishing equations.

    2D uses the separable chart cleared of its a12, a21 denominators (the
    residual is multiplied by a12*a21, so rows match the printed conditions up
    to that declared clearing factor).  3D rows are polynomial as printed.
    """
    S = SymPoly.sym
    if spec.kind == "2d-separable":
        b, A, e = _symbolic_system(2)
        al, be, ga = S("al"), S("be"), S("ga")
        a12, a21 = A[0][1], A[1][0]
        f1 = _f_laurent(2, b, A, e, 0)
        f2 = _f_laurent(2, b, A, e, 1)
        # a12*a21 * [ (al + be/x1)/a12 f1 + (-al + ga/x2)/a21 f2 + div f ]
        k1 = f1.scale(al * a21) + f1.shift(0, -1).scale(be * a21)
        k2 = f2.scale(-(al * a12)) + f2.shift(1, -1).scale(ga * a12)
        divf = f1.diff(0) + f2.diff(1)
        res = k1 + k2 + divf.scale(a12 * a21)
        return [ConditionRow(0, exps, c) for (exps, _), c in res.items_sorted()]
    b, A, e = _symbolic_system(3)
    abg = (S("al"), S("be"), S("ga"))
    l = (S("l1"), S("l2"), S("l3"))
    comps = residual_3d_generic((b, A, e), spec.kind, abg, l)
    rows: list[ConditionRow] = []
    for ci, comp in enumerate(comps):
        for (exps, _), c in comp.items_sorted():
            rows.append(ConditionRow(ci, exps, c))
    return rows


def residual_dump(components) -> list[dict]:
    """CLI-facing dump: residual(s) as exponent/coefficient records."""
    if isinstance(components, GenPoly):
        components = [components]
    out = []
    for ci, comp in enumerate(components):
        for (exps, _), c in comp.items_sorted():
            out.append(
                {
                    "component": ci + 1,
                    "exponents": list(exps),
                    "coefficient": f"{c.numerator}/{c.denominator}",
                }
            )
    return out
