import random
from fractions import Fraction

import pytest

from lvfi.catalog2d import RULES_2D, SAMPLERS_2D
from lvfi.catalog3d import RULES_3D, SAMPLERS_3D
from lvfi.detection import integer_view, pattern_ok
from lvfi.model import Permutation, lift_exact, make_system, parse_system, permute_system
from lvfi.oracle import (
    T_WEIGHTS,
    AnsatzError,
    AnsatzSpec,
    _symbolic_system,
    derive_conditions,
    residual_2d,
    residual_2d_exponents,
    residual_3d,
    residual_3d_generic,
    residual_dump,
)
from lvfi.poly import GenPoly, SymPoly, canonical
from lvfi.potential import gradient_targets_3d

from conftest import rand_fraction, shift

F = Fraction
T1 = AnsatzSpec("3d-t1")
T2 = AnsatzSpec("3d-t2")


def _coeff(g: GenPoly, powers):
    """The coefficient of the log-free term x^powers of g, or None."""
    return g.terms.get((tuple(powers), (0,) * g.nvars))


def test_volterra_classic_zero_residual():
    s = parse_system('{"dim":2,"b":[1,-1],"A":[[0,-1],[1,0]],"e":[0,0]}')
    # (alpha, beta, gamma) = (0, -a12, -a21), i.e. l1 = l2 = 0
    r = residual_2d(s, 0, -s.A[0][1], -s.A[1][0])
    assert r.is_zero()
    assert residual_2d_exponents((s.b, s.A, s.e), F(0), F(0)).is_zero()


def test_r2da_instance_zero_residual_and_perturbation():
    s = parse_system('{"dim":2,"b":[1,-1],"A":[[1,-2],[-2,1]],"e":[5,7]}')
    assert residual_2d(s, 0, 0, 0).is_zero()
    # perturbing beta to 1 puts beta*e1/a12 on the x1^-1 monomial (the
    # first-component constant-term condition of the derivation)
    r = residual_2d(s, 0, 1, 0)
    assert not r.is_zero()
    assert _coeff(r, (-1, 0)) == F(1) * s.e[0] / s.A[0][1]


def test_residual_2d_requires_offdiagonal_couplings():
    s = make_system(b=(1, -1), A=((0, 0), (1, 0)), e=(0, 0))
    with pytest.raises(AnsatzError):
        residual_2d(s, 0, 0, 0)


def test_t1_symmetric_instance_zero_residual():
    s = parse_system(
        '{"dim":3,"b":[0,0,0],"A":[[1,-2,-2],[-2,1,-2],[-2,-2,1]],"e":[1,1,1]}'
    )
    comps = residual_3d(s, T1, (1, -1, 1), (1, 1, 1))
    assert all(c.is_zero() for c in comps)


def test_zero_matrix_t1_residual_trivially_zero():
    rng = random.Random(4)
    s = make_system(
        b=tuple(rand_fraction(rng) for _ in range(3)),
        A=tuple(tuple(rand_fraction(rng) for _ in range(3)) for _ in range(3)),
        e=tuple(rand_fraction(rng) for _ in range(3)),
    )
    comps = residual_3d(s, T1, (0, 0, 0), (1, 1, 1))
    assert all(c.is_zero() for c in comps)


def test_t1_case_i_gamma_perturbation_matches_expansion():
    # on a case-(i) instance, pushing gamma' off zero leaves the first curl
    # component with the gamma'-block of the expansion: constant term
    # gamma'*(l2 b2 + l3 b3) etc.
    s = make_system(
        b=(2, -2, 5),
        A=((1, -6, 0), (-2, 3, 0), (4, 7, 9)),
        e=(1, 1, 1),
    )
    comps = residual_3d(s, T1, (1, 0, 0), (1, 1, 1))
    assert all(c.is_zero() for c in comps)
    comps = residual_3d(s, T1, (1, 0, F(1, 2)), (1, 1, 1))
    c1 = comps[0]
    assert _coeff(c1, (0, 0, 0)) == F(1, 2) * (s.b[1] + s.b[2])
    assert _coeff(c1, (0, 1, 0)) == F(1, 2) * (2 * s.A[1][1] + s.A[2][1])
    assert _coeff(c1, (0, 0, 1)) == F(1, 2) * (2 * s.A[2][2] + s.A[1][2])


def test_log_derivative_matches_direct_division_for_integer_exponents():
    """For positive integer exponents R is a polynomial, so div(R f)/R can be
    computed by direct polynomial calculus and compared exactly."""
    rng = random.Random(9)
    for _ in range(30):
        s = make_system(
            b=(rand_fraction(rng), rand_fraction(rng)),
            A=(
                (rand_fraction(rng), rand_fraction(rng)),
                (rand_fraction(rng), rand_fraction(rng)),
            ),
            e=(rand_fraction(rng), rand_fraction(rng)),
        )
        l1, l2 = rng.randint(1, 4), rng.randint(1, 4)
        via_log = residual_2d_exponents((s.b, s.A, s.e), F(l1), F(l2))
        # direct: R = x1^(l1-1) x2^(l2-1); residual = div(R f) / R
        f1 = _f_laurent(2, s.b, s.A, s.e, 0)
        f2 = _f_laurent(2, s.b, s.A, s.e, 1)
        R = GenPoly.term(2, 1, (l1 - 1, l2 - 1))
        div = (R * f1).diff(0) + (R * f2).diff(1)
        direct = shift(shift(div, 0, -(l1 - 1)), 1, -(l2 - 1))
        assert via_log == direct


def test_residual_3d_log_derivative_matches_direct_division():
    rng = random.Random(10)
    for _ in range(10):
        s = make_system(
            b=tuple(rand_fraction(rng) for _ in range(3)),
            A=tuple(tuple(rand_fraction(rng) for _ in range(3)) for _ in range(3)),
            e=tuple(rand_fraction(rng) for _ in range(3)),
        )
        l = tuple(rng.randint(1, 3) for _ in range(3))
        abg = tuple(rand_fraction(rng) for _ in range(3))
        via_log = residual_3d(s, T2, abg, l)
        tf = gradient_targets_3d(s, "3d-t2", abg, l)  # T f, R included
        curls = [
            tf[2].diff(1) - tf[1].diff(2),
            tf[0].diff(2) - tf[2].diff(0),
            tf[1].diff(0) - tf[0].diff(1),
        ]
        direct = [
            shift(shift(shift(c, 0, -(l[0] - 1)), 1, -(l[1] - 1)), 2, -(l[2] - 1))
            for c in curls
        ]
        assert via_log == direct


# Reference arithmetic: the composed form that the one-pass residual
# replaced.  f_i is built term by term here, independently of the oracle.


def _f_laurent(nvars, b, A, e, i) -> GenPoly:
    """f_i = x_i (b_i + sum_j a_ij x_j) + e_i as a Laurent polynomial, with
    coefficients in any ring (Fractions, ints, SymPoly)."""
    z = (0,) * nvars

    def powers(*ks):
        return tuple(ks.count(k) for k in range(nvars))

    terms = {(powers(i), z): b[i], (z, z): e[i]}
    for j in range(nvars):
        terms[(powers(i, j), z)] = A[i][j]
    return GenPoly(nvars, terms)


# T f/R is built from GenPoly products of the weight monomials with f,
# and D_j g = dg/dx_j + (l_j - 1) g/x_j (+ c_j g) is a chain of
# diff, shift, scale and add.  The one-pass form must give equal term dicts.


def _ref_t_components(nvars, b, A, e, kind, abg):
    f = [_f_laurent(nvars, b, A, e, i) for i in range(nvars)]
    z = (0,) * nvars
    w12, w13, w23 = (
        GenPoly(nvars, {(p, z): c}) for p, c in zip(T_WEIGHTS[kind], abg)
    )
    g1 = -(w12 * f[1]) - (w13 * f[2])
    g2 = (w12 * f[0]) - (w23 * f[2])
    g3 = (w13 * f[0]) + (w23 * f[1])
    return g1, g2, g3


def _ref_dtilde(g, j, lj_minus_1, cj=None):
    out = g.diff(j) + shift(g, j, -1).scale(lj_minus_1)
    if cj is not None and cj:
        out = out + g.scale(cj)
    return out


def _ref_residual_3d(s_coeffs, kind, abg, l):
    g1, g2, g3 = _ref_t_components(3, *s_coeffs, kind, abg)
    lm1 = [li - 1 for li in l]
    return [
        _ref_dtilde(g3, 1, lm1[1]) - _ref_dtilde(g2, 2, lm1[2]),
        _ref_dtilde(g1, 2, lm1[2]) - _ref_dtilde(g3, 0, lm1[0]),
        _ref_dtilde(g2, 0, lm1[0]) - _ref_dtilde(g1, 1, lm1[1]),
    ]


def _ref_residual_2d(s_coeffs, l1, l2, c1=None, c2=None):
    f1 = _f_laurent(2, *s_coeffs, 0)
    f2 = _f_laurent(2, *s_coeffs, 1)
    return _ref_dtilde(f1, 0, l1 - 1, c1) + _ref_dtilde(f2, 1, l2 - 1, c2)


def _terms(comps):
    return [c.terms for c in (comps if isinstance(comps, list) else [comps])]


def _param(rng):
    """A small Ansatz parameter: zero, a whole number or a proper fraction."""
    return canonical(rng.choice((0, 1, -1, 2, F(1, 2), F(-2, 3), F(3, 4))))


def _coeffs(s):
    return s.b, s.A, s.e


def test_one_pass_residual_matches_composed_form_on_every_sampler():
    """Every sampler, every relabeling, on the Fraction system and its
    integer view: at each match's Ansatz (mostly zero residuals) and at
    random parameters with proper-fraction exponents."""
    rng = random.Random(13)
    checked = 0
    for samplers, rules in ((SAMPLERS_2D, RULES_2D), (SAMPLERS_3D, RULES_3D)):
        for name, sample in samplers.items():
            s = lift_exact(sample(random.Random(name)))
            for p in Permutation.all(s.dim):
                for view in (permute_system(s, p), permute_system(integer_view(s), p)):
                    params = []
                    for rule in rules:
                        if pattern_ok(rule.pattern, view):
                            params += [m.ansatz for m in rule.match(view) if m.ansatz]
                    for _ in range(2):
                        kind = rng.choice(("3d-t1", "3d-t2")) if s.dim == 3 else "2d-exponents"
                        params.append((kind, tuple(_param(rng) for _ in range(3)),
                                       tuple(_param(rng) for _ in range(s.dim))))
                    for kind, abg, l in params:
                        if kind == "2d-separable":
                            continue
                        l = tuple(map(canonical, l))
                        if kind == "2d-exponents":
                            c = (_param(rng), None) if rng.random() < 0.5 else (None, None)
                            got = residual_2d_exponents(_coeffs(view), *l, *c)
                            want = _ref_residual_2d(_coeffs(view), *l, *c)
                        else:
                            abg = tuple(map(canonical, abg))
                            got = residual_3d_generic(_coeffs(view), kind, abg, l)
                            want = _ref_residual_3d(_coeffs(view), kind, abg, l)
                        assert _terms(got) == _terms(want), (name, p, kind, abg, l)
                        checked += 1
    assert checked > 900


def test_one_pass_residual_matches_composed_form_on_random_systems():
    rng = random.Random(14)
    for _ in range(200):
        dim = rng.choice((2, 3))
        s = make_system(
            b=tuple(rand_fraction(rng) for _ in range(dim)),
            A=tuple(tuple(rand_fraction(rng) for _ in range(dim)) for _ in range(dim)),
            e=tuple(rand_fraction(rng) if rng.random() < 0.6 else 0 for _ in range(dim)),
        )
        l = tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(dim))
        if dim == 2:
            c = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2))
            assert _terms(residual_2d_exponents(_coeffs(s), *l, *c)) == _terms(
                _ref_residual_2d(_coeffs(s), *l, *c)
            )
            continue
        for kind in ("3d-t1", "3d-t2"):
            abg = tuple(rand_fraction(rng) for _ in range(3))
            got = residual_3d(s, AnsatzSpec(kind), abg, l)
            want = _ref_residual_3d(_coeffs(s), kind, abg, tuple(map(canonical, l)))
            assert _terms(got) == _terms(want)


def test_one_pass_residual_matches_composed_form_on_symbolic_rows():
    """derive_conditions rows (SymPoly coefficients) for T1 and T2, and the
    2D residual with symbolic exponents and exponential factors."""
    S = SymPoly.sym
    b, A, e = _symbolic_system(3)
    for spec in (T1, T2):
        abg = tuple(S(n) for n in ("al", "be", "ga"))
        l = (S("l1"), S("l2"), S("l3"))
        want = _ref_residual_3d((b, A, e), spec.kind, abg, l)
        rows = [
            (ci, exps, c)
            for ci, comp in enumerate(want)
            for (exps, _), c in comp.items_sorted()
        ]
        assert [(r.component, r.exponents, r.poly) for r in derive_conditions(spec)] == rows
        # a catalog template: tied exponents and a unit direction entry
        abg, l = (S("al"), 1, 0), (1, S("l2"), -1 - S("l2"))
        assert _terms(residual_3d_generic((b, A, e), spec.kind, abg, l)) == _terms(
            _ref_residual_3d((b, A, e), spec.kind, abg, l)
        )
    b, A, e = _symbolic_system(2)
    args = (S("l1"), S("l2"), S("c1"), S("c2"))
    assert _terms(residual_2d_exponents((b, A, e), *args)) == _terms(
        _ref_residual_2d((b, A, e), *args)
    )
    # the separable chart cleared of a12 a21:
    # a12 a21 [(al + be/x1)/a12 f1 + (-al + ga/x2)/a21 f2 + div f]
    al, be, ga = S("al"), S("be"), S("ga")
    a12, a21 = A[0][1], A[1][0]
    f1, f2 = _f_laurent(2, b, A, e, 0), _f_laurent(2, b, A, e, 1)
    want = (
        f1.scale(al * a21) + shift(f1, 0, -1).scale(be * a21)
        + f2.scale(-(al * a12)) + shift(f2, 1, -1).scale(ga * a12)
        + (f1.diff(0) + f2.diff(1)).scale(a12 * a21)
    )
    rows = [(0, exps, c) for (exps, _), c in want.items_sorted()]
    assert len(rows) == 7
    got = derive_conditions(AnsatzSpec("2d-separable"))
    assert [(r.component, r.exponents, r.poly) for r in got] == rows


def test_residual_dump_format():
    s = parse_system('{"dim":2,"b":[1,-1],"A":[[1,-2],[-2,1]],"e":[5,7]}')
    dump = residual_dump(residual_2d(s, 0, 1, 0))
    assert dump
    rec = dump[0]
    assert set(rec) == {"component", "exponents", "coefficient"}
    assert "/" in rec["coefficient"]
