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
can be certified by an exact symbolic Lie derivative f . grad H == 0.  An
integral H + c ln|P| with a polynomial P (R2D-E's) takes the same test and
output form, through the ``log`` argument of each.

The detection gate calls these on the system's primitive-integer view
(detection.integer_view), with the Ansatz direction scaled to primitive
integers and R = x^(l-1) held with the int coefficient 1, so T f has int
coefficients and only the antiderivative divides (poly.quotient, exact).
Scaling (b, A, e) by c > 0 only rescales time: T f, H and the Lie
derivative are scaled by a positive constant, every zero test is unchanged,
and normalize_for_output, which every emitted integral passes through,
removes the constant.  ``integer_field`` scales T f once more, by the lcm
of the divisors the antiderivatives meet, so the potential of an exact
field has int coefficients too, and the Lie gate and normalize_for_output
run on ints.

The gate also keeps the powers whole.  With d_i the denominator of the
exponent l_i (1 when l_i is whole), it works in y_i = x_i^(1/d_i), the
integer exponent lattice of the match (``lattice``).  There a term
c x^(q+l-1) of (T f)_i is the term c d_i y^(d(q+l-1) + (d_i-1) u_i) of
dH/dy_i (u_i the i-th unit vector), with int powers, so ``potential`` runs
unchanged on int keys.  ``from_lattice`` maps H back to x once: y^P is
x^(P/d) and ln|y_i|^k is ln|x_i|^k / d_i^k, and given a relabeling it pulls
H back to the original coordinates in the same pass.  Distinct GenPoly
terms are independent functions and the map is one-to-one on terms, so the
H mapped back is the potential built in x, term for term.  ``lie_genpoly`` with the
lattice takes the Lie derivative in y, scaled by D = lcm(d); that is the
image of the one in x times D, so its zero test is the same.  Integer
exponents are the lattice of all ones, on which every step is the x-space
one.

Nothing that depends on the dimension alone is rebuilt per call: the unit
vectors come from poly.units and the Lie gate's power shifts on the
lattice of all ones from _X_SHIFTS, so lie_genpoly builds only the shifts
of a lattice with a denominator.  Its one pass takes the log branch only
for the coordinates in which a term carries a log power.  ``potential``
accumulates H in place and compares each gradient with its target as term
dicts, with no difference taken.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, mul, sub

from .expr import Add, Const, Expr, LnAbs, Mul, Pow, Var
from .linalg import primitive
from .model import LVSystem, lift_exact
from .oracle import _t_components
from .poly import GenPoly, _acc, canonical, quotient, units


class ConstructionError(RuntimeError):
    """Potential reconstruction failed; the field was not curl-free."""


def potential(components: list[GenPoly]) -> GenPoly:
    """Reconstruct H with grad H = components, assuming the field is exact.

    Sequential reconstruction: integrate the first component in x1, correct
    with the next components, and verify the final gradient identically; a
    mismatch raises ConstructionError.  H is accumulated in place, and
    each gradient is compared with its target term for term (neither holds
    a zero coefficient, so equal term dicts are equal functions).
    """
    n = components[0].nvars
    H = GenPoly.zero(n)
    terms = H.terms
    for i in range(n):
        rem = components[i] - H.diff(i)
        for j in range(i):
            if rem.depends_on(j):
                raise ConstructionError(
                    f"remainder for x{i+1} still depends on x{j+1}: field not exact"
                )
        for k, c in rem.integrate(i).terms.items():
            _acc(terms, k, c)
    for i in range(n):
        if H.diff(i).terms != components[i].terms:
            raise ConstructionError("gradient mismatch after reconstruction")
    return H


def lattice(l) -> tuple[int, ...]:
    """The denominators d_i of the Ansatz exponents l_i, 1 where l_i is
    whole: the match works in y_i = x_i^(1/d_i)."""
    return tuple(1 if type(v) is int else v.denominator for v in map(canonical, l))


def _times_factor(g: list[dict], l, d) -> list[GenPoly]:
    """R g for R = x^(l-1) with the coefficient 1, on the lattice d:
    component i times dx_i/dy_i = d_i y_i^(d_i-1), in y = x^(1/d).  Every
    exponent of g (oracle._t_components) is multiplied by d and shifted by
    d (l - 1) + (d_i - 1) u_i, so no product is taken."""
    n = len(d)
    dlm1 = tuple(canonical(di * (canonical(v) - 1)) for di, v in zip(d, l))
    z = (0,) * n
    u = units(n)
    out = []
    for i, gi in enumerate(g):
        di = d[i]
        shift = dlm1 if di == 1 else tuple(q + (di - 1) * ui for q, ui in zip(dlm1, u[i]))
        terms = {(tuple(map(add, map(mul, d, p), shift)), z): c * di for p, c in gi.items()}
        out.append(GenPoly._of(n, terms))
    return out


def gradient_targets_3d(s: LVSystem, kind: str, abg, l, *, t=None, lattice=None) -> list[GenPoly]:
    """T f as GenPoly components: grad H targets for the 3D Ansatz, in
    y = x^(1/d) on the lattice d (default x).  t is T f/R
    (oracle._t_components) when the caller has it."""
    if t is None:
        sx = lift_exact(s)
        t = _t_components(3, sx.b, sx.A, sx.e, kind, tuple(map(canonical, abg)))
    return _times_factor(t, l, lattice or (1, 1, 1))


def gradient_targets_2d(s: LVSystem, l, *, t=None, lattice=None) -> list[GenPoly]:
    """(T f) = (-R f2, R f1) for the 2D monomial chart R = x1^(l1-1) x2^(l2-1),
    in y = x^(1/d) on the lattice d (default x)."""
    if t is None:
        sx = lift_exact(s)
        t = _t_components(2, sx.b, sx.A, sx.e, "2d-exponents", (1,))
    return _times_factor(t, l, lattice or (1, 1))


def integer_field(components: list[GenPoly]) -> list[GenPoly]:
    """Log-free gradient targets times D, the lcm of the divisors that
    ``potential`` meets on them: it integrates a term c x^p of component i
    to c x^(p + u_i) / (p_i + 1), or to c ln|x_i| where p_i = -1, with no
    division (a proper-fraction p_i + 1 divides by its numerator).  For an
    exact field each remainder it integrates is made of terms of the
    targets, so targets with int coefficients, times D, have a potential
    with int coefficients: D times the potential of the targets."""
    big = 1
    for i, g in enumerate(components):
        for p, _ in g.terms:
            q = p[i] + 1
            if q:
                big = lcm(big, q.numerator)
    return components if big == 1 else [g.scale(big) for g in components]


def from_lattice(H: GenPoly, d, sigma=None) -> GenPoly:
    """H, a function of y = x^(1/d), as a function of x: y^P ln|y|^k is
    x^(P/d) ln|x|^k / d^k.  With sigma, H is also pulled back from
    relabeled coordinates in the same pass: the relabeled variable i is the
    original variable sigma(i), so position i moves to sigma(i)."""
    whole = all(di == 1 for di in d)
    if sigma is not None and all(i == si for i, si in enumerate(sigma)):
        sigma = None
    if whole and sigma is None:
        return H
    if sigma is not None:
        # position j of the result reads position src[j] of H
        src = [0] * len(sigma)
        for i, si in enumerate(sigma):
            src[si] = i
    out = {}
    for (p, k), c in H.terms.items():
        if not whole:
            den = 1
            for di, ki in zip(d, k):
                if ki:
                    den *= di**ki
            p = tuple(
                q if di == 1 else (q // di if q % di == 0 else Fraction(q, di))
                for q, di in zip(p, d)
            )
            if den != 1:
                c = quotient(c, den)
        if sigma is not None:
            p = tuple(map(p.__getitem__, src))
            k = tuple(map(k.__getitem__, src))
        out[(p, k)] = c
    return GenPoly._of(H.nvars, out)


def _shift_table(n: int, d) -> tuple:
    """Per coordinate i, the power shifts of the terms b_i, a_i1..a_in of
    f_i/x_i on theta_i and of e_i on d/dx_i, on the lattice d: 0, d_j u_j
    and -d_i u_i."""
    u = units(n)
    up = [tuple(dj * q for q in uj) for dj, uj in zip(d, u)]
    return tuple(((0,) * n, *up, tuple(-q for q in up[i])) for i in range(n))


# The shifts on the lattice of all ones, where the Lie derivative is the one
# in x, for each dimension of a system.
_X_SHIFTS = {n: _shift_table(n, (1,) * n) for n in (2, 3)}


def lie_genpoly(H: GenPoly, s: LVSystem, lattice=None, log=None) -> GenPoly:
    """Exact symbolic Lie derivative f . grad H in the GenPoly algebra, in
    one pass over H's terms.

    In Euler form f_i d/dx_i = (b_i + sum_j a_ij x_j) theta_i + e_i d/dx_i,
    with theta_i = x_i d/dx_i.  On a term c x^p ln^k, theta_i gives
    c p_i x^p ln^k + c k_i x^p ln^(k - u_i) (u_i the i-th unit vector), and
    d/dx_i gives the same two terms times x^(-u_i); b_i keeps the powers,
    a_ij adds u_j and e_i subtracts u_i.  So the field is never built as a
    GenPoly and no product of GenPolys is taken.  The power shifts of each
    dimension are a table built at import (_X_SHIFTS); only a lattice other
    than all ones builds its own (_shift_table).

    On a lattice d, H is a function of y = x^(1/d) and the result is D
    times the Lie derivative in y, D = lcm(d): theta_i in x is theta_i in y
    over d_i, x_j is y^(d_j u_j) and 1/x_i is y^(-d_i u_i), so row i is
    weighted by D/d_i, a_ij adds d_j u_j and e_i subtracts d_i u_i.  With
    no lattice (all ones) this is the Lie derivative in x.

    With log = (c, P) the integral is H + c ln|P|, whose Lie derivative is
    L(H) + c L(P)/P.  The result is P L(H) + c L(P), that times P, which is
    zero exactly where the Lie derivative is.
    """
    sx = lift_exact(s)
    n = H.nvars
    d = lattice or (1,) * n
    big = lcm(*d)
    table = _X_SHIFTS.get(n) if big == 1 else None
    if table is None:
        table = _shift_table(n, d)
    # per coordinate i: the nonzero (power shift, coefficient) pairs of f_i/x_i
    # on theta_i, then of e_i on d/dx_i, weighted by D/d_i
    shifts = []
    for i, row in enumerate(table):
        w = big // d[i]
        shifts.append([(sh, c * w) for sh, c in zip(row, (sx.b[i], *sx.A[i], sx.e[i])) if c])
    u = units(n)
    if log is None:
        return _lie(H, shifts, u)
    c, P = log
    return _lie(H, shifts, u) * P + _lie(P, shifts, u).scale(c)


def _lie(H: GenPoly, shifts, units) -> GenPoly:
    """The one pass of lie_genpoly over H's terms; only a term with a log
    power in x_i takes the second, log branch for coordinate i."""
    out: dict = {}
    for (p, k), c in H.terms.items():
        for i, row in enumerate(shifts):
            pi = p[i]
            if k[i]:
                nk = tuple(map(sub, k, units[i]))
                cp, ck = c * pi, c * k[i]
                for sh, fc in row:
                    np = tuple(map(add, p, sh))
                    if pi:
                        _acc(out, (np, k), cp * fc)
                    _acc(out, (np, nk), ck * fc)
            elif pi:
                cp = c * pi
                for sh, fc in row:
                    _acc(out, (tuple(map(add, p, sh)), k), cp * fc)
    return GenPoly._of(H.nvars, out)


def genpoly_to_expr(H: GenPoly, log=None) -> Expr:
    """Render as an Expr (sum of coefficient * powers * log factors), with
    c * ln|P| last for log = (c, P)."""
    terms = []
    for (p, k), c in H.items_sorted():
        factors: list[Expr] = []
        if c != 1 or (all(q == 0 for q in p) and all(q == 0 for q in k)):
            factors.append(_const(c))
        for i, q in enumerate(p):
            if q == 0:
                continue
            factors.append(Var(i) if q == 1 else Pow(Var(i), q))
        for i, q in enumerate(k):
            for _ in range(q):
                factors.append(LnAbs(Var(i)))
        terms.append(factors[0] if len(factors) == 1 else Mul(tuple(factors)))
    if log is not None:
        c, P = log
        ln = LnAbs(genpoly_to_expr(P))
        terms.append(ln if c == 1 else Mul((_const(c), ln)))
    if not terms:
        return Const(Fraction(0))
    return terms[0] if len(terms) == 1 else Add(tuple(terms))


def _const(c) -> Const:
    """The constant of an exact coefficient: an int becomes a Fraction, as
    every constant of a rendered integral is."""
    return Const(Fraction(c) if type(c) is int else c)


def normalize_for_output(H: GenPoly, log=None) -> tuple:
    """(H, log) in output form: H without its integration constant, scaled
    to primitive integer-like coefficients with a positive leading term.
    It is the same for every nonzero multiple of H, so it removes the scale
    of an integral built on a system's integer view.  For the integral
    H + c ln|P| (log = (c, P)), H and c are scaled together, and P is made
    primitive on its own: ln|lambda P| is ln|P| plus a constant.  Where P
    is a monomial k x^p, c ln|P| is c sum_i p_i ln|x_i| plus a constant, so
    it is folded into H's log terms and the log is dropped: one integral
    has one output form, whichever rule states it.  The coefficients of
    the result, and c, are ints (genpoly_to_expr renders them as
    Fractions)."""
    H = H.drop_constant()
    if log is not None and len(log[1].terms) == 1:
        c, P = log
        ((p, k),) = P.terms
        if not any(k):
            z = (0,) * H.nvars
            H = H + GenPoly._of(H.nvars, {(z, u): c * q for q, u in zip(p, units(H.nvars)) if q})
            log = None
    if log is None:
        return _primitive_form(H)[0], None
    c, P = log
    H, c = _primitive_form(H, c)
    return H, (c, _primitive_form(P)[0])


def _primitive_form(G: GenPoly, *tail) -> tuple:
    """G and the numbers tail scaled by one nonzero rational to primitive
    integers, as ints, with G's leading term positive (tail's first number
    where G is zero): (G, *tail) scaled."""
    values = [*G.terms.values(), *tail]
    if not any(values):
        return (G, *tail)
    lead = G.terms[min(G.terms)] if G.terms else tail[0]
    sign = -1 if lead < 0 else 1
    coefs = [sign * v for v in primitive(values)]
    return (GenPoly._of(G.nvars, dict(zip(G.terms, coefs))), *coefs[len(G.terms):])
