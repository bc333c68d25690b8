"""GenPoly's exponent canonical form: whole powers are int, never float."""

from fractions import Fraction

from lvfi.detection import _canonical_monomial
from lvfi.poly import GenPoly
from lvfi.potential import potential

from conftest import shift


def _power_types(H: GenPoly) -> set:
    return {type(q) for (p, _), _ in H.terms.items() for q in p}


def test_term_stores_whole_powers_as_int():
    H = GenPoly.term(2, 3, (Fraction(4, 2), Fraction(1, 3)))
    ((p, k),) = H.terms
    assert p == (2, Fraction(1, 3))
    assert type(p[0]) is int and type(p[1]) is Fraction
    assert k == (0, 0)


def test_arithmetic_never_makes_a_float_power():
    x = GenPoly.term(3, 1, (1, 0, 0))
    R = GenPoly.term(3, Fraction(2, 5), (Fraction(-1, 2), Fraction(6, 3), -1))
    H = (R * x + x).scale(Fraction(3)) - shift(R, 2, 2)
    for G in (H, H.diff(0), H.diff(1), H.integrate(0), H.integrate(2), -H):
        assert _power_types(G) <= {int, Fraction}
    # x1^-1 integrates to a log factor; the powers stay int
    L = GenPoly.term(2, 1, (-1, 0)).integrate(0)
    assert L.terms == {((0, 0), (1, 0)): 1}
    assert _power_types(L) == {int}
    # a potential of an integer gradient field keeps int powers
    H = potential([GenPoly.term(2, 2, (1, 2)), GenPoly.term(2, 2, (2, 1))])
    assert H.terms == {((2, 2), (0, 0)): 1}
    assert _power_types(H) == {int}


def test_canonical_monomial_divides_exactly():
    H = _canonical_monomial(GenPoly.term(3, 5, (2, 4, 0)))
    ((p, k), c), = H.terms.items()
    assert p == (1, 2, 0) and c == 1
    assert all(type(q) is int for q in p)
    H = _canonical_monomial(GenPoly.term(2, 1, (3, 2)))
    ((p, _),) = H.terms
    assert p == (1, Fraction(2, 3)) and type(p[1]) is Fraction


def test_int_and_fraction_keys_merge_and_cancel():
    zero = (0, 0)
    a = GenPoly(2, {((2, 1), zero): Fraction(1)})
    b = GenPoly(2, {((Fraction(2), Fraction(1)), zero): Fraction(3)})
    assert (a + b).terms == {((2, 1), zero): 4}
    assert (a + b.scale(Fraction(-1, 3))).is_zero()
    assert (a - a).is_zero() and not (a - a).terms


def test_public_constructor_drops_zero_coefficients():
    zero = (0, 0)
    H = GenPoly(2, {((1, 0), zero): Fraction(0), ((0, 1), zero): Fraction(2)})
    assert H.terms == {((0, 1), zero): 2}
    assert GenPoly(2, {((1, 1), zero): 0}).is_zero()
