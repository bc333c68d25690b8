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

T f/R is read off (b, A, e) in one pass (_t_components), and so is each
curl component (_curl), with no product of GenPolys.  Nothing in either
pass depends on the dimension alone: the powers of every term of every
field component, already shifted by each skew entry's weight, are the
table _T_TERMS, built at import per Ansatz kind, and the unit vectors that
_curl subtracts come from poly.units.  The same code serves
int, Fraction and SymPoly coefficients, so concrete residuals,
derive_conditions (the 2D separable chart included) and the catalog's
condition rows, the L5-8c sampler's among them, are one expansion.

The exact gate (detection._gate_and_build) builds T f/R once per match and
hands it in (``t=``), and it asks for the residual scaled by D, the lcm of
the denominators of the exponents (``scale=``).  Every factor
D (p_k + l_k - 1) is then an int, so on a system's integer view the whole
residual stays in ints even when an exponent is a proper fraction.  A
nonzero scale does not change which coefficients vanish, so the zero test
is the same; ``lvfi oracle`` asks for no scale and prints the unscaled
coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from operator import add, sub

from .model import LVSystem, lift_exact
from .poly import GenPoly, SymPoly, _acc, canonical, units
from .record import Frozen


class AnsatzError(ValueError):
    """The requested Ansatz chart is undefined for this system."""


class AnsatzSpec(Frozen):
    """Which Ansatz family a residual refers to."""

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        if kind not in ("2d-separable", "3d-t1", "3d-t2"):
            raise ValueError(f"unknown ansatz kind {kind!r}")
        object.__setattr__(self, "kind", kind)


T1 = AnsatzSpec("3d-t1")
T2 = AnsatzSpec("3d-t2")


def residual_2d_exponents(
    s_coeffs, l1, l2, c1=None, c2=None, *, t=None, scale=1
) -> GenPoly:
    """div(R f)/R for R = exp(c1 x1 + c2 x2) x1^(l1-1) x2^(l2-1), times
    scale.

    s_coeffs is (b, A, e) with entries in a common coefficient ring; the
    exponent parameters enter only through l_i - 1 and c_i.  t is T f/R
    (_t_components) when the caller has it.
    """
    if t is None:
        t = _t_components(2, *s_coeffs, "2d-exponents", (1,))
    lm1, c = (l1 - 1, l2 - 1), (c1, c2)
    if scale != 1:
        lm1 = [canonical(scale * v) for v in lm1]
        c = [scale * v if v else v for v in c]
    return _curl(t, lm1, c, scale)[0]


def residual_2d(s: LVSystem, alpha, beta, gamma) -> GenPoly:
    """2D residual in the separable-Ansatz chart A = exp(a x1/a12) x1^(b/a12),
    B = exp(-a x2/a21) x2^(g/a21); requires a12 != 0 and a21 != 0."""
    if s.dim != 2:
        raise ValueError("residual_2d needs a 2D system")
    s = lift_exact(s)
    a12, a21 = s.A[0][1], s.A[1][0]
    if a12 == 0 or a21 == 0:
        raise AnsatzError("separable Ansatz undefined: a12 = 0 or a21 = 0")
    alpha, beta, gamma = Fraction(alpha), Fraction(beta), Fraction(gamma)
    l1 = beta / a12 + 1
    l2 = gamma / a21 + 1
    return residual_2d_exponents((s.b, s.A, s.e), l1, l2, alpha / a12, -alpha / a21)


# Exponents of the monomial weights of the skew entries (1,2), (1,3), (2,3)
# of T/R, whose coefficients are -alpha, -beta, -gamma (primed for T1); in
# 2D, T/R = [[0, -1], [1, 0]] is the entry (1,2) with direction (1,).
T_WEIGHTS = {
    "2d-exponents": ((0, 0),),
    "3d-t1": ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
    "3d-t2": ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
}


def _field_powers(n: int, i: int) -> tuple:
    """The powers of the terms b_i x_i, e_i and a_ij x_i x_j (j = 1..n) of
    f_i = x_i(b_i + sum_j a_ij x_j) + e_i, in that order; they are
    distinct."""
    u = units(n)
    return (u[i], (0,) * n, *(tuple(map(add, u[i], u[j])) for j in range(n)))


# Per kind, one entry per skew entry (i, j) of T/R and component it feeds:
# (index of the entry's coefficient in abg, component, field, sign, the
# powers of that field's terms shifted by the entry's weight w), first the
# -c x^w f_j part of component i, then the c x^w f_i part of component j.
_T_TERMS = {
    kind: tuple(
        (m, gi, fj, sign, tuple(tuple(map(add, p, w)) for p in _field_powers(len(w), fj)))
        for m, ((i, j), w) in enumerate(zip(combinations(range(len(ws[0])), 2), ws))
        for gi, fj, sign in ((i, j, -1), (j, i, 1))
    )
    for kind, ws in T_WEIGHTS.items()
}


def _t_components(nvars, b, A, e, kind: str, abg) -> list[dict]:
    """T f/R per component as {powers: coefficient}, in one pass over the
    skew entries of T/R (T_WEIGHTS, upper entry -c x^w at (i, j) and c x^w
    at (j, i)) and the terms b_j x_j, e_j, a_jk x_j x_k of each f_j, whose
    shifted powers come from the table _T_TERMS."""
    g: list[dict] = [{} for _ in range(nvars)]
    for m, i, j, sign, powers in _T_TERMS[kind]:
        c = abg[m]
        if not c:
            continue
        cc = -c if sign < 0 else c
        gi = g[i]
        for p, v in zip(powers, (b[j], e[j], *A[j])):
            if v:
                _acc(gi, p, cc * v)
    return g


def _curl(g: list[dict], lm1, c=(), scale=1) -> list[GenPoly]:
    """scale * curl(R g)/R for the Ansatz factor R = x^(l-1) (times
    exp(c' . x) in 2D), one component per pair (i, j) in curl order:
    D_i g_j - D_j g_i.  The caller scales the parameters: lm1 = scale (l - 1)
    and c = scale c'.  On a term, scale D_k(v x^p) = v (scale p_k + lm1_k)
    x^(p - u_k) + c_k v x^p, so each component is one pass over the terms
    of two components of g, with zero products skipped.  A scale that clears
    the denominators of l - 1 makes every factor an int; derive_conditions
    clears the separable chart's a12 a21 with a symbolic one."""
    n = len(g)
    z = (0,) * n
    u = units(n)
    out = []
    for i, j in ((0, 1),) if n == 2 else ((1, 2), (2, 0), (0, 1)):
        comp: dict = {}
        for k, gk, sign in ((i, g[j], 1), (j, g[i], -1)):
            lk, uk = lm1[k], u[k]
            ck = sign * c[k] if c and c[k] else None
            for p, v in gk.items():
                fac = sign * (p[k] * scale + lk)
                if fac:
                    _acc(comp, (tuple(map(sub, p, uk)), z), v * fac)
                if ck:
                    _acc(comp, (p, z), v * ck)
        out.append(GenPoly._of(n, comp))
    return out


def residual_3d(s: LVSystem, spec: AnsatzSpec, abg, l, *, t=None, scale=1) -> list[GenPoly]:
    """The three components of curl(T f)/R, exact Laurent polynomials,
    times scale.  t is T f/R (_t_components) when the caller has it."""
    if s.dim != 3:
        raise ValueError("residual_3d needs a 3D system")
    if spec.kind not in ("3d-t1", "3d-t2"):
        raise ValueError(f"3D residual needs a 3D ansatz, got {spec.kind}")
    if t is None:
        sx = lift_exact(s)
        t = _t_components(3, sx.b, sx.A, sx.e, spec.kind, tuple(map(canonical, abg)))
    return _curl(t, [canonical(scale * (canonical(li) - 1)) for li in l], scale=scale)


def residual_3d_generic(s_coeffs, kind: str, abg, l) -> list[GenPoly]:
    return _curl(_t_components(3, *s_coeffs, kind, abg), [li - 1 for li in l])


# -- symbolic condition derivation -------------------------------------------


class ConditionRow(Frozen):
    """One coefficient-vanishing equation of the expanded curl residual."""

    __slots__ = ("component", "exponents", "poly")

    def __init__(self, component: int, exponents: tuple[int, ...], poly: SymPoly):
        # component: the residual component index (0 for the 2D scalar)
        object.__setattr__(self, "component", component)
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "poly", poly)


def _symbolic_system(dim: int):
    S = SymPoly.sym
    b = tuple(S(f"b{i+1}") for i in range(dim))
    A = tuple(tuple(S(f"a{i+1}{j+1}") for j in range(dim)) for i in range(dim))
    e = tuple(S(f"e{i+1}") for i in range(dim))
    return b, A, e


def derive_conditions(spec: AnsatzSpec) -> list[ConditionRow]:
    """Expand the residual with fully symbolic coefficients and collect the
    coefficient-vanishing equations.

    2D uses the separable chart (residual_2d: l - 1 = (be/a12, ga/a21),
    c = (al/a12, -al/a21)) cleared of its a12, a21 denominators: the
    residual is multiplied by a12*a21, so rows match the printed conditions
    up to that declared clearing factor.  3D rows are polynomial as printed.
    """
    S = SymPoly.sym
    al, be, ga = S("al"), S("be"), S("ga")
    if spec.kind == "2d-separable":
        b, A, e = _symbolic_system(2)
        a12, a21 = A[0][1], A[1][0]
        t = _t_components(2, b, A, e, "2d-exponents", (1,))
        comps = _curl(t, (be * a21, ga * a12), (al * a21, -(al * a12)), a12 * a21)
    else:
        b, A, e = _symbolic_system(3)
        l = (S("l1"), S("l2"), S("l3"))
        comps = residual_3d_generic((b, A, e), spec.kind, (al, be, ga), l)
    return [
        ConditionRow(ci, exps, c)
        for ci, comp in enumerate(comps)
        for (exps, _), c in comp.items_sorted()
    ]


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
