from fractions import Fraction

import pytest

from lvfi.model import (
    ModelError,
    Permutation,
    lift_exact,
    make_system,
    parse_system,
    permute_system,
    serialize_system,
)

from conftest import to_float


def test_parse_classic_volterra_is_rational():
    s = parse_system('{"dim":2,"b":[1,-1],"A":[[0,-1],[1,0]],"e":[0,0]}')
    assert s.kind == "rational"
    assert s.b == (1, -1)
    assert s.A == ((0, -1), (1, 0))
    assert isinstance(s.b[0], Fraction)


def test_parse_symmetric_3d_instance_satisfies_conditions():
    s = parse_system(
        '{"dim":3,"b":[0,0,0],"A":[[1,-2,-2],[-2,1,-2],[-2,-2,1]],"e":[1,1,1]}'
    )
    assert all(v == 0 for v in s.b)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert s.A[i][j] == -2 * s.A[j][j]


def test_parse_dimension_mismatch():
    with pytest.raises(ModelError):
        parse_system('{"dim":2,"b":[1],"A":[[0,-1],[1,0]],"e":[0,0]}')


def test_parse_rejects_dim_4():
    with pytest.raises(ModelError):
        parse_system('{"dim":4,"b":[1,1,1,1],"A":[[0]],"e":[0,0,0,0]}')


def test_parse_rational_strings_and_mixing():
    s = parse_system('{"dim":2,"b":["1/3","2"],"A":[[0,"-1/2"],[1,0]],"e":[0,0]}')
    assert s.kind == "rational"
    assert s.b[0] == Fraction(1, 3)
    with pytest.raises(ModelError):
        parse_system('{"dim":2,"b":["1/3",0.5],"A":[[0,-1],[1,0]],"e":[0,0]}')


def test_parse_floats_give_float_kind():
    s = parse_system('{"dim":2,"b":[0.5,-1],"A":[[0,-1],[1,0]],"e":[0,0]}')
    assert s.kind == "float"
    assert isinstance(s.b[1], float)


def test_parse_rejects_non_finite():
    with pytest.raises(ModelError):
        parse_system('{"dim":2,"b":["inf",1],"A":[[0,-1],[1,0]],"e":[0,0]}')


def test_serialize_round_trip_bit_exact():
    s = parse_system(
        '{"dim":2,"b":["1/3","-7/5"],"A":[["2","-1/2"],[1,0]],"e":[0,"11/13"]}'
    )
    s2 = parse_system(serialize_system(s))
    assert s == s2


def test_serialize_round_trip_simple():
    s = make_system(b=(Fraction(1, 3), 2), A=((0, 1), (2, 3)), e=(0, Fraction(-5, 7)))
    assert parse_system(serialize_system(s)) == s


def test_permutation_identity_and_involution():
    s = parse_system(
        '{"dim":3,"b":[1,2,3],"A":[[1,2,3],[4,5,6],[7,8,9]],"e":[0,1,2]}'
    )
    ident = Permutation.identity(3)
    assert permute_system(s, ident) == s
    p = Permutation((0, 2, 1))
    assert permute_system(permute_system(s, p), p.inverse()) == s
    assert permute_system(permute_system(s, p), p) == s  # involution


def test_permutation_group_action():
    s = parse_system(
        '{"dim":3,"b":[1,2,3],"A":[[1,2,3],[4,5,6],[7,8,9]],"e":[0,1,2]}'
    )
    for p in Permutation.all(3):
        for q in Permutation.all(3):
            lhs = permute_system(permute_system(s, p), q)
            rhs = permute_system(s, p.compose(q))
            assert lhs == rhs


def test_permute_entries_follow_sigma():
    s = parse_system(
        '{"dim":3,"b":[1,2,3],"A":[[11,12,13],[21,22,23],[31,32,33]],"e":[5,6,7]}'
    )
    p = Permutation((0, 2, 1))
    sp = permute_system(s, p)
    assert sp.b == (1, 3, 2)
    assert sp.A[0] == (11, 13, 12)
    assert sp.A[1] == (31, 33, 32)
    assert sp.e == (5, 7, 6)


def test_permutation_maps_condition_entries():
    # swapping coordinates 2 and 3 carries the entries a13, a23 onto a12, a32
    s = parse_system(
        '{"dim":3,"b":[1,2,3],"A":[[11,12,0],[21,22,0],[31,32,33]],"e":[5,6,7]}'
    )
    sp = permute_system(s, Permutation((0, 2, 1)))
    assert sp.A[0][1] == s.A[0][2]  # a12' = a13
    assert sp.A[2][1] == s.A[1][2]  # a32' = a23
    assert sp.A[0][1] == 0 and sp.A[2][1] == 0


def test_make_system_rejects_non_finite_floats():
    with pytest.raises(ModelError):
        make_system(b=(float("nan"), 0.0), A=((0.0, 0.0), (0.0, 0.0)), e=(0.0, 0.0), kind="float")


def test_lift_exact_and_to_float():
    s = parse_system('{"dim":2,"b":[0.5,-1.0],"A":[[0,-1],[1,0]],"e":[0,0]}')
    sx = lift_exact(s)
    assert sx.kind == "rational"
    assert sx.b[0] == Fraction(1, 2)
    sf, lossy = to_float(sx)
    assert not lossy
    s3 = make_system(b=(Fraction(1, 3), 0), A=((0, 0), (0, 0)), e=(0, 0))
    _, lossy3 = to_float(s3)
    assert lossy3
