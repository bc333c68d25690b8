import random
from fractions import Fraction

import pytest

from lvfi.model import make_system, parse_system
from lvfi.oracle import (
    AnsatzError,
    AnsatzSpec,
    residual_2d,
    residual_2d_exponents,
    residual_3d,
    residual_dump,
)
from lvfi.poly import GenPoly

from conftest import rand_fraction

F = Fraction
T1 = AnsatzSpec("3d-t1")
T2 = AnsatzSpec("3d-t2")


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
    assert r.coeff((-1, 0)) == F(1) * s.e[0] / s.A[0][1]


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
    assert c1.coeff((0, 0, 0)) == F(1, 2) * (s.b[1] + s.b[2])
    assert c1.coeff((0, 1, 0)) == F(1, 2) * (2 * s.A[1][1] + s.A[2][1])
    assert c1.coeff((0, 0, 1)) == F(1, 2) * (2 * s.A[2][2] + s.A[1][2])


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
        from lvfi.oracle import _f_laurent

        f1 = _f_laurent(2, s.b, s.A, s.e, 0)
        f2 = _f_laurent(2, s.b, s.A, s.e, 1)
        R = GenPoly.term(2, 1, (l1 - 1, l2 - 1))
        div = (R * f1).diff(0) + (R * f2).diff(1)
        direct = div.shift(0, -(l1 - 1)).shift(1, -(l2 - 1))
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
        from lvfi.oracle import _f_laurent, _t_components

        g1, g2, g3 = _t_components(3, s.b, s.A, s.e, "3d-t2", abg)
        R = GenPoly.term(3, 1, (l[0] - 1, l[1] - 1, l[2] - 1))
        tf = [R * g for g in (g1, g2, g3)]
        curls = [
            tf[2].diff(1) - tf[1].diff(2),
            tf[0].diff(2) - tf[2].diff(0),
            tf[1].diff(0) - tf[0].diff(1),
        ]
        direct = [
            c.shift(0, -(l[0] - 1)).shift(1, -(l[1] - 1)).shift(2, -(l[2] - 1))
            for c in curls
        ]
        assert via_log == direct


def test_residual_dump_format():
    s = parse_system('{"dim":2,"b":[1,-1],"A":[[1,-2],[-2,1]],"e":[5,7]}')
    dump = residual_dump(residual_2d(s, 0, 1, 0))
    assert dump
    rec = dump[0]
    assert set(rec) == {"component", "exponents", "coefficient"}
    assert "/" in rec["coefficient"]
