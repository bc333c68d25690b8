import random
from fractions import Fraction

import pytest

from lvfi import expr as ex
from lvfi.catalog2d import SAMPLERS_2D
from lvfi.catalog3d import SAMPLERS_3D
from lvfi.detection import integer_view
from lvfi.model import lift_exact, make_system, parse_system
from lvfi.poly import canonical
from lvfi.potential import (
    ConstructionError,
    GenPoly,
    genpoly_to_expr,
    gradient_targets_2d,
    gradient_targets_3d,
    lie_genpoly,
    normalize_for_output,
    potential,
)

from conftest import normalized, rand_fraction
from test_oracle import _f_laurent, _ref_t_components

F = Fraction


def test_genpoly_diff_integrate_inverse():
    rng = random.Random(2)
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            powers = tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2))
            logs = tuple(rng.randint(0, 2) for _ in range(2))
            terms[(powers, logs)] = rand_fraction(rng, nonzero=True)
        g = GenPoly(2, terms)
        for i in range(2):
            assert (g.integrate(i).diff(i) - g).is_zero()


def test_potential_reconstruction_round_trip():
    # build H, differentiate, reconstruct, compare up to a constant
    rng = random.Random(3)
    for _ in range(30):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            powers = tuple(F(rng.randint(-2, 3), rng.randint(1, 2)) for _ in range(3))
            logs = tuple(rng.randint(0, 1) for _ in range(3))
            terms[(powers, logs)] = rand_fraction(rng, nonzero=True)
        H = GenPoly(3, terms)
        grads = [H.diff(i) for i in range(3)]
        H2 = potential(grads)
        assert (H2 - H).drop_constant().is_zero()


def test_potential_rejects_non_exact_field():
    # grad of nothing: (x2, 0) has curl -1
    g1 = GenPoly.term(2, 1, (0, 1))
    g2 = GenPoly.zero(2)
    with pytest.raises(ConstructionError):
        potential([g1, g2])


def test_volterra_construction_matches_printed_log_form():
    s = parse_system('{"dim":2,"b":[1,-1],"A":[[0,-1],[1,0]],"e":[0,0]}')
    H = potential(gradient_targets_2d(s, (F(0), F(0))))
    # printed: b1 ln|x2| + a12 x2 - b2 ln|x1| - a21 x1
    printed = (
        GenPoly.term(2, 1, (0, 0), (0, 1))
        + GenPoly.term(2, -1, (0, 1))
        + GenPoly.term(2, 1, (0, 0), (1, 0))
        + GenPoly.term(2, -1, (1, 0))
    )
    assert (H - printed).drop_constant().is_zero() or (
        (H + printed).drop_constant().is_zero()
    )


def test_l2_iii_construction_is_integral():
    s = parse_system(
        '{"dim":3,"b":[0,0,0],"A":[[1,-2,-2],[-2,1,-2],[-2,-2,1]],"e":[1,1,1]}'
    )
    H = potential(gradient_targets_3d(s, "3d-t1", (1, -1, 1), (F(1), F(1), F(1))))
    assert lie_genpoly(H, s).is_zero()
    Hn = normalize_for_output(H)
    # with unit diagonal the integral is x1^2 x2 - x1^2 x3 - x1 x2^2 + x1 x3^2
    # + x2^2 x3 - x2 x3^2, all linear coefficients vanishing for e = (1,1,1)
    expect = {
        ((F(2), F(1), F(0)), (0, 0, 0)): F(1),
        ((F(2), F(0), F(1)), (0, 0, 0)): F(-1),
        ((F(1), F(2), F(0)), (0, 0, 0)): F(-1),
        ((F(1), F(0), F(2)), (0, 0, 0)): F(1),
        ((F(0), F(2), F(1)), (0, 0, 0)): F(1),
        ((F(0), F(1), F(2)), (0, 0, 0)): F(-1),
    }
    terms = normalized(Hn).terms
    scale = terms[((F(2), F(1), F(0)), (0, 0, 0))]
    assert {k: v / scale for k, v in terms.items()} == expect


def test_genpoly_to_expr_eval_agreement():
    rng = random.Random(8)
    for _ in range(20):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            powers = tuple(F(rng.randint(-2, 3), rng.randint(1, 2)) for _ in range(2))
            logs = tuple(rng.randint(0, 1) for _ in range(2))
            terms[(powers, logs)] = rand_fraction(rng, nonzero=True)
        g = GenPoly(2, terms)
        h = genpoly_to_expr(g)
        for _ in range(5):
            x = tuple(0.3 + 5.0 * rng.random() for _ in range(2))
            direct = 0.0
            for (p, k), c in g.terms.items():
                import math

                v = float(c)
                for i, q in enumerate(p):
                    v *= x[i] ** float(q)
                for i, q in enumerate(k):
                    v *= math.log(abs(x[i])) ** q
                direct += v
            assert ex.eval_expr(h, x) == pytest.approx(direct, rel=1e-10, abs=1e-12)


def test_exact_lie_zero_certifies_monomial_integral():
    # rank-one rows: H = x1 x2^(-lambda) with lambda = a11/a21
    s = make_system(b=(2, 1), A=((2, 4), (1, 2)), e=(0, 0))
    H = GenPoly.term(2, 1, (1, -2))
    assert lie_genpoly(H, s).is_zero()
    H_bad = GenPoly.term(2, 1, (1, -3))
    assert not lie_genpoly(H_bad, s).is_zero()


def _ref_targets(s, l, kind=None, abg=None):
    """R g with R = x^(l-1) (coefficient 1) as a GenPoly product: the
    composed form that shifting exponents replaced."""
    R = GenPoly(s.dim, {(tuple(canonical(v) - 1 for v in l), (0,) * s.dim): 1})
    if s.dim == 2:
        g = [-_f_laurent(2, s.b, s.A, s.e, 1), _f_laurent(2, s.b, s.A, s.e, 0)]
    else:
        g = _ref_t_components(3, s.b, s.A, s.e, kind, tuple(map(canonical, abg)))
    return [R * gi for gi in g]


def test_gradient_targets_equal_factor_times_components():
    rng = random.Random(15)
    params = (0, 1, -1, 2, F(1, 2), F(-2, 3), F(5, 3))
    systems = [
        lift_exact(sample(random.Random(name)))
        for name, sample in {**SAMPLERS_2D, **SAMPLERS_3D}.items()
    ]
    systems += [integer_view(s) for s in systems]
    for s in systems:
        for _ in range(3):
            l = tuple(rng.choice(params) for _ in range(s.dim))
            if s.dim == 2:
                got, want = gradient_targets_2d(s, l), _ref_targets(s, l)
            else:
                kind = rng.choice(("3d-t1", "3d-t2"))
                abg = tuple(rng.choice(params) for _ in range(3))
                got = gradient_targets_3d(s, kind, abg, l)
                want = _ref_targets(s, l, kind, abg)
            assert [t.terms for t in got] == [t.terms for t in want]
