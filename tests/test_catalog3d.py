import random
from fractions import Fraction

import pytest

from lvfi.catalog3d import (
    SAMPLERS_3D,
    detect3d,
    rule_conditions,
    solve_abg,
    term_table,
)
from lvfi import detection
from lvfi.detection import _canonical_monomial, _permute_genpoly, gradient_proportional
from lvfi.model import Permutation, make_system, parse_system, permute_system
from lvfi.potential import GenPoly

from conftest import rand_fraction

F = Fraction


def _families(dets):
    return {d.rule_id.split("/")[0] for d in dets}


def test_term_table_spec_examples():
    s = parse_system(
        '{"dim":3,"b":[1,2,3],"A":[[1,2,3],[4,5,6],[7,8,9]],"e":[0,0,0]}'
    )
    t0 = term_table((0, 0, 0), s)
    assert t0.B == (0, 0, 0)
    assert all(v == 0 for row in t0.A for v in row)
    t1 = term_table((1, 0, 0), s)
    assert t1.B == (s.b[0], s.b[1], 0)
    assert t1.A[0] == s.A[0]
    assert t1.A[1] == s.A[1]
    assert t1.A[2] == (0, 0, 0)


def test_term_table_identities_1000_draws():
    rng = random.Random(99)
    for _ in range(1000):
        s = make_system(
            b=tuple(rand_fraction(rng) for _ in range(3)),
            A=tuple(tuple(rand_fraction(rng) for _ in range(3)) for _ in range(3)),
            e=tuple(rand_fraction(rng) for _ in range(3)),
        )
        al, be, ga = (rand_fraction(rng) for _ in range(3))
        t = term_table((al, be, ga), s)
        assert t.B[0] * be + t.B[1] * ga - t.B[2] * al == 0
        for i in range(3):
            assert t.A[0][i] * be + t.A[1][i] * ga - t.A[2][i] * al == 0


def test_solve_abg_examples():
    s = parse_system(
        '{"dim":3,"b":[1,2,3],"A":[[1,2,3],[4,5,6],[7,8,9]],"e":[0,0,0]}'
    )
    # no constraints: full 3D basis
    assert len(solve_abg(s, [])) == 3
    # A22 = A23 = 0 with gamma pinned to 0: nontrivial iff a22 a33 = a23 a32
    s_deg = make_system(
        b=(0, 0, 0),
        A=((0, 0, 0), (1, 2, 4), (3, 6, 12)),
        e=(0, 0, 0),
    )
    sols = solve_abg(s_deg, ["A22", "A23"], fixed={"gamma": 0})
    assert sols and all(v[2] == 0 for v in sols)
    al, be, _ = sols[0]
    assert s_deg.A[1][1] * al + s_deg.A[2][1] * be == 0
    assert s_deg.A[1][2] * al + s_deg.A[2][2] * be == 0
    sols_none = solve_abg(s, ["A22", "A23"], fixed={"gamma": 0})
    assert sols_none == []


def test_l2_iii_symmetric_coupling_instance():
    s = parse_system(
        '{"dim":3,"b":[0,0,0],"A":[[1,-2,-2],[-2,1,-2],[-2,-2,1]],"e":[1,1,1]}'
    )
    dets = [d for d in detect3d(s) if d.rule_id == "L2-iii"]
    assert dets
    d = dets[0]
    assert d.oracle_kind == "curl-residual-zero"
    # linear coefficients vanish for e = (1,1,1) with unit diagonal
    expect = (
        GenPoly.term(3, 1, (2, 1, 0))
        + GenPoly.term(3, -1, (2, 0, 1))
        + GenPoly.term(3, -1, (1, 2, 0))
        + GenPoly.term(3, 1, (1, 0, 2))
        + GenPoly.term(3, 1, (0, 2, 1))
        + GenPoly.term(3, -1, (0, 1, 2))
    )
    assert gradient_proportional(expect, d.H_gen) is not None
    assert d.paper_formula_deviation.startswith("agrees")


def test_l3_1_2d_embedded_instance():
    # a13 = a23 = 0 block satisfying the 2D nonzero-e conditions
    s = make_system(
        b=(1, -1, 2),
        A=((1, -2, 0), (-2, 1, 0), (3, 4, 5)),
        e=(5, 7, 0),
    )
    dets = detect3d(s)
    fams = _families(dets)
    assert "L3-1" in fams
    d = [x for x in dets if x.rule_id == "L3-1"][0]
    printed = (
        GenPoly.term(3, s.b[0], (1, 1, 0))
        + GenPoly.term(3, s.A[0][0], (2, 1, 0))
        + GenPoly.term(3, -s.A[1][1], (1, 2, 0))
        + GenPoly.term(3, s.e[0], (0, 1, 0))
        + GenPoly.term(3, -s.e[1], (1, 0, 0))
    )
    assert gradient_proportional(printed, d.H_gen) is not None


def test_l5_5_proportional_rows_instance():
    # row1 = 2 * row2 -> monomial integral x1 x2^-2 (canonical exponent form)
    s = make_system(
        b=(2, 1, 3),
        A=((2, 4, 6), (1, 2, 3), (5, 7, 11)),
        e=(0, 0, 0),
    )
    dets = [d for d in detect3d(s) if d.rule_id == "L5-5"]
    assert dets
    keys = {next(iter(d.H_gen.terms))[0] for d in dets}
    assert (F(1), F(-2), F(0)) in keys


def test_generic_random_3d_system_detects_nothing():
    s = parse_system(
        '{"dim":3,"b":[1,2,3],"A":[[1,5,3],[4,2,6],[7,8,3]],"e":[1,2,5]}'
    )
    assert detect3d(s) == []


@pytest.mark.parametrize("rule_id", sorted(SAMPLERS_3D))
def test_sampler_hits_its_rule(rule_id):
    rng = random.Random(abs(hash(rule_id)) % 2**32)
    for _ in range(3):
        s = SAMPLERS_3D[rule_id](rng)
        dets = detect3d(s)
        assert rule_id in _families(dets), rule_id


def test_t1_rules_fire_for_degenerate_e_patterns():
    """The constant-matrix Ansatz conditions are e-free, so those integrals
    persist when constant terms vanish."""
    rng = random.Random(17)
    s = SAMPLERS_3D["L2-iii"](rng)
    for e in [(0, 0, 0), (1, 0, 0), (1, 1, 0)]:
        s2 = make_system(b=s.b, A=s.A, e=e)
        assert "L2-iii" in _families(detect3d(s2))


def test_equivariance_smoke():
    rng = random.Random(55)

    def canonical(dets, sigma=None):
        out = set()
        for d in dets:
            H = d.H_gen
            if sigma is not None:
                H = _permute_genpoly(H, sigma)
            H = _canonical_monomial(H.drop_constant())
            out.add(
                (d.rule_id.split("/")[0], frozenset(H.normalized().terms.items()))
            )
        return out

    for rule_id in ["L2-i", "L3-2", "L4-4", "L5-7d"]:
        s = SAMPLERS_3D[rule_id](rng)
        base = canonical(detect3d(s))
        for p in Permutation.all(3):
            dets_p = detect3d(permute_system(s, p))
            assert canonical(dets_p, p.sigma) == base, (rule_id, p.sigma)


def test_t1_case_exhaustiveness_modulo_permutation():
    """Any nonzero support pattern of the constant-matrix parameters is a
    relabeling of one of the three T1 cases, so every solvable configuration
    (with all constant terms nonzero) is matched modulo permutation."""
    rng = random.Random(42)
    for case in ("L2-i", "L2-ii", "L2-iii"):
        for p in Permutation.all(3):
            s = permute_system(SAMPLERS_3D[case](rng), p)
            assert case in _families(detect3d(s)), (case, p.sigma)


def test_rule_conditions_lookup():
    rep = rule_conditions("L5-7d")
    assert any("a13+a23" in g for g in rep["guards"])
    assert rep["notes"]
    with pytest.raises(KeyError):
        rule_conditions("L9-1")


def test_printed_formula_comparison_outcomes():
    rng = random.Random(8)
    # L4-1: printed formula is consistent with the construction
    s = SAMPLERS_3D["L4-1"](rng)
    d = [x for x in detect3d(s) if x.rule_id == "L4-1"][0]
    assert d.paper_formula_deviation.startswith("agrees")
    # L4-5: printed formula is garbled (missing x1 factors)
    s = SAMPLERS_3D["L4-5"](rng)
    d = [x for x in detect3d(s) if x.rule_id == "L4-5"][0]
    assert d.paper_formula_deviation.startswith("deviates")
    # L5-7d: printed exponent formula lacks a division
    s = SAMPLERS_3D["L5-7d"](rng)
    d = [x for x in detect3d(s) if x.rule_id == "L5-7d"][0]
    assert d.paper_formula_deviation is not None


def test_run_rules_permutes_once_per_relabeling(monkeypatch):
    calls = []

    def counting(s, p):
        calls.append(p.sigma)
        return permute_system(s, p)

    monkeypatch.setattr(detection, "permute_system", counting)
    s = SAMPLERS_3D["L2-iii"](random.Random(5))
    assert detect3d(s)
    assert sorted(calls) == sorted(p.sigma for p in Permutation.all(3))
