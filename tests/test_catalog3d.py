import random
from fractions import Fraction

import pytest

from lvfi.catalog3d import RULES_3D, SAMPLERS_3D, _l5_8c_rows, detect3d, term_table
from lvfi import detection
from lvfi.detection import (
    _canonical_monomial,
    _permute_genpoly,
    condition_function,
    condition_source,
)
from lvfi.linalg import nullspace
from lvfi.model import Permutation, make_system, parse_system, permute_system
from lvfi.potential import GenPoly

from conftest import normalized, rand_fraction, same_integral
from printed_forms import PRINTED, UNDEFINED, PrintedForm, audit, printed_calls

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
    # condition_source knows the table's names, as the guards print them
    names = ["B1", "B2", "B3"] + [f"A{k}{i}" for k in (1, 2, 3) for i in (1, 2, 3)]
    entries = [condition_function(condition_source(n)) for n in names]
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
        values = [f(s.b, s.A, s.e, (al, be, ga)) for f in entries]
        assert values == list(t.B) + [v for row in t.A for v in row]


def _entry_directions(s, entries):
    """Basis of the directions (alpha, beta, 0) making the named A entries
    of term_table vanish: the table is linear in the direction, so its
    values at (1, 0, 0) and (0, 1, 0) are the columns of those rows."""
    cols = [term_table(u, s).A for u in ((1, 0, 0), (0, 1, 0))]
    rows = [tuple(t[int(n[1]) - 1][int(n[2]) - 1] for t in cols) for n in entries]
    return [(al, be, 0) for al, be in nullspace(rows)]


def test_term_table_entries_vanish_on_solved_directions():
    s = parse_system(
        '{"dim":3,"b":[1,2,3],"A":[[1,2,3],[4,5,6],[7,8,9]],"e":[0,0,0]}'
    )
    # linear in the direction: the sum of the tables at two directions is
    # the table at their sum
    t1, t2 = term_table((1, 0, 2), s), term_table((0, 3, -1), s)
    t12 = term_table((1, 3, 1), s)
    assert t12.B == tuple(x + y for x, y in zip(t1.B, t2.B))
    assert t12.A == tuple(
        tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(t1.A, t2.A)
    )
    # A22 = A23 = 0 with gamma = 0: nontrivial iff a22 a33 = a23 a32
    s_deg = make_system(
        b=(0, 0, 0),
        A=((0, 0, 0), (1, 2, 4), (3, 6, 12)),
        e=(0, 0, 0),
    )
    sols = _entry_directions(s_deg, ["A22", "A23"])
    assert sols
    al, be, ga = sols[0]
    assert s_deg.A[1][1] * al + s_deg.A[2][1] * be == 0
    assert s_deg.A[1][2] * al + s_deg.A[2][2] * be == 0
    t = term_table((al, be, ga), s_deg)
    assert t.A[1][1] == t.A[1][2] == 0
    assert _entry_directions(s, ["A22", "A23"]) == []


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
    assert same_integral(expect, d.H_gen)
    assert _first_verdict(s, "L2-iii").startswith("agrees")


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
    assert same_integral(printed, d.H_gen)


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


def _hand_l5_8c_rows(l1, l2, l3):
    """The L5-8c conditions at alpha = beta = gamma = 1 and e = 0, typed
    out: rows on (b1, b2, b3), then on (a11..a13, a21..a23, a31..a33)."""
    brows = [(l1, l2, l2 - l1), (l1, l1 + l3, l3), (l2 - l3, l2, l3)]
    arows = [
        (0, 0, l1, 0, 0, l2, 0, 0, l2 - l1),
        (0, l1, 0, 0, l1 + l3, 0, 0, l3, 0),
        (l2 - l3, 0, 0, l2, 0, 0, l3, 0, 0),
        (l1 + 1, 0, 0, l2, 0, 0, l2 - l1 - 1, 0, 0),
        (0, l1, 0, 0, l2 + 1, 0, 0, l2 + 1 - l1, 0),
        (l1 + 1, 0, 0, l1 + 1 + l3, 0, 0, l3, 0, 0),
        (0, 0, l1, 0, 0, l1 + l3 + 1, 0, 0, l3 + 1),
        (0, l2 + 1 - l3, 0, 0, l2 + 1, 0, 0, l3, 0),
        (0, 0, l2 - l3 - 1, 0, 0, l2, 0, 0, l3 + 1),
    ]
    return brows, arows


def test_l5_8c_sampler_rows_span_the_typed_conditions():
    """The oracle's rows that the L5-8c sampler derives give the nullspace
    bases of the typed rows, zero and repeated exponents included."""
    rng = random.Random(8)
    derived = _l5_8c_rows()
    for k in range(300):
        l = tuple(F(rng.randint(-1, 1)) if k < 30 else rand_fraction(rng) for _ in range(3))
        for rows, want in zip(derived, _hand_l5_8c_rows(*l)):
            assert nullspace(rows(None, None, None, l=l)[0]) == nullspace(want), l


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
                (d.rule_id.split("/")[0], frozenset(normalized(H).terms.items()))
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
    rep = next(r for r in RULES_3D if r.id == "L5-7d").conditions()
    assert any("a13+a23" in g for g in rep["guards"])
    assert rep["notes"]
    assert (rep["id"], rep["dim"]) == ("L5-7d", 3)


def _first_verdict(s, rule_id):
    """The audited verdict on the printed form at the first detection of
    rule_id on s, which must be the note that detection reports."""
    d = next(x for x in detect3d(s) if x.rule_id == rule_id)
    verdict, note = next((v, note) for rid, v, note in audit([s]) if rid == rule_id)
    assert verdict == note == d.paper_formula_deviation
    return verdict


def test_printed_formula_comparison_outcomes():
    rng = random.Random(8)
    # L4-1: printed formula is consistent with the construction
    assert _first_verdict(SAMPLERS_3D["L4-1"](rng), "L4-1").startswith("agrees")
    # L4-5: printed formula is garbled (missing x1 factors)
    assert _first_verdict(SAMPLERS_3D["L4-5"](rng), "L4-5").startswith("deviates")
    # L5-7d: printed exponent formula lacks a division
    assert _first_verdict(SAMPLERS_3D["L5-7d"](rng), "L5-7d") is not None
    # L4-9 at l2 = 1: the printed form divides by l3 + 1 = 0, so there is
    # no comparison (draw 3 of its sampler at seed 1)
    rng = random.Random(1)
    s = [SAMPLERS_3D["L4-9"](rng) for _ in range(4)][3]
    _, s2, m, H2, note = next(c for c in printed_calls([s]) if c[0] == "L4-9")
    assert m.ansatz[2] == (1, 1, -1)
    assert PRINTED["L4-9"](s2, m, H2) == note == UNDEFINED


def test_printed_forms_compile_and_evaluate_at_their_matches():
    forms = {rid: f for rid, f in PRINTED.items() if isinstance(f, PrintedForm)}
    assert len({id(f) for f in forms.values()}) == 19  # L2-i, L3-1 share
    for rule in RULES_3D:
        form = forms.get(rule.id)
        if form is None:
            continue
        s = rule.sample(random.Random(rule.id))
        matches = rule.match(s)
        assert matches, rule.id
        for m in matches:
            terms = form.evaluate(s.b, s.A, s.e, *m.ansatz[1:])
            assert len(terms) == len(form.terms), rule.id
            for coeff, *triples in terms:
                assert isinstance(coeff, Fraction), rule.id
                assert all(len(t) == 3 for t in triples), rule.id


def test_run_rules_permutes_once_per_relabeling(monkeypatch):
    integer_views, permuted, gated = [], [], []
    integer_view, gate = detection.integer_view, detection._gate_and_build

    def viewed(s):
        integer_views.append(integer_view(s))
        return integer_views[-1]

    def counting(s, p):
        permuted.append((s is integer_views[-1], p.sigma))
        return permute_system(s, p)

    def gating(rule, s2, s2i, p, *args):
        gated.append(p.sigma)
        return gate(rule, s2, s2i, p, *args)

    monkeypatch.setattr(detection, "integer_view", viewed)
    monkeypatch.setattr(detection, "permute_system", counting)
    monkeypatch.setattr(detection, "_gate_and_build", gating)
    s = SAMPLERS_3D["L2-iii"](random.Random(5))
    assert detect3d(s)
    # the integer view (detection.integer_view) once per relabeling, never
    # once per rule
    assert len(integer_views) == 1
    relabelings = [p.sigma for p in Permutation.all(3)]
    assert sorted(sigma for is_int, sigma in permuted if is_int) == relabelings
    # the Fraction view once for each relabeling whose match reached a gate,
    # and for no other: T1 with direction (1, 1, 1) is one factor under all
    # six relabelings, gated under the first
    fractions = sorted(sigma for is_int, sigma in permuted if not is_int)
    assert fractions == sorted(set(gated)) == [(0, 1, 2)]
